type addr = Layout.addr

exception Segfault of { addr : addr; node : int; what : string }

let word_size = 8

(* Demand-zero paging: [mmap] records every page as [Zero], an alias of
   the one shared, never-written [zero_page]; the first store to a page
   materialises a private copy ([Data]). A thread's 64 KB stack slot
   thus costs one table entry per page until the thread touches it. *)
type page =
  | Zero
  | Data of {
      bytes : Bytes.t;
      mutable epoch : int;
          (* access epoch of the last store — the access-heat telemetry
             below *)
      mutable hash : int;
          (* memoized content hash for the v3 delta codec, [no_hash] when
             absent *)
    }

let zero_page = Bytes.make Layout.page_size '\000'

let no_hash = -1

type t = {
  node : int;
  pages : (int, page) Hashtbl.t; (* page index -> state; mapped iff bound *)
  mutable mmap_calls : int;
  (* One-entry read cache: guest word/byte accesses show heavy page
     locality (stack frames, header walks), so memoizing the last-touched
     page turns most accesses into a compare + array index instead of a
     Hashtbl probe. [-1] = empty. [last_bytes] may be [zero_page]; the
     store slow path re-points it when it materialises that page. *)
  mutable last_page : int;
  mutable last_bytes : Bytes.t;
  (* One-entry write cache: [last_dirty] is a [Data] page already stamped
     with the current epoch and stripped of its hash memo, so further
     stores to it need no table access. Reset to [-1] whenever that could
     stop holding: a page is removed, [advance_epoch] opens a window, or
     [page_hash] memoizes a hash (the next store to any page then takes
     the slow path, which drops the memo of the page it touches — a memo
     that survives proves the page unchanged since it was hashed). *)
  mutable last_dirty : int;
  mutable last_dirty_bytes : Bytes.t;
  (* Access epochs for placement telemetry: [advance_epoch] opens a new
     observation window, and [dirty_in_epoch] counts the pages of a range
     whose last store falls inside the current window — the "heat" the
     access-imbalance balancer feeds on. Epoch 0 is the whole pre-history,
     so heat reads 0 until a window has been opened. *)
  mutable epoch : int;
}

let create ~node () =
  {
    node;
    pages = Hashtbl.create 1024;
    mmap_calls = 0;
    last_page = -1;
    last_bytes = Bytes.empty;
    last_dirty = -1;
    last_dirty_bytes = Bytes.empty;
    epoch = 0;
  }

let node t = t.node

let segv t addr what = raise (Segfault { addr; node = t.node; what })

let check_aligned what ~addr ~size =
  if not (Layout.is_page_aligned addr) || not (Layout.is_page_aligned size) || size <= 0 then
    invalid_arg (Printf.sprintf "Address_space.%s: unaligned range (0x%x, %d)" what addr size)

let mmap t ~addr ~size =
  check_aligned "mmap" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let n = size / Layout.page_size in
  for p = first to first + n - 1 do
    if Hashtbl.mem t.pages p then
      invalid_arg (Printf.sprintf "Address_space.mmap: page 0x%x already mapped"
                     (Layout.addr_of_page p))
  done;
  for p = first to first + n - 1 do
    Hashtbl.add t.pages p Zero
  done;
  t.mmap_calls <- t.mmap_calls + 1

let munmap t ~addr ~size =
  check_aligned "munmap" ~addr ~size;
  let first = Layout.page_of_addr addr in
  let n = size / Layout.page_size in
  for p = first to first + n - 1 do
    if not (Hashtbl.mem t.pages p) then
      invalid_arg (Printf.sprintf "Address_space.munmap: page 0x%x not mapped"
                     (Layout.addr_of_page p))
  done;
  for p = first to first + n - 1 do
    Hashtbl.remove t.pages p
  done;
  t.last_page <- -1;
  t.last_dirty <- -1

let is_mapped t a = Hashtbl.mem t.pages (Layout.page_of_addr a)

let range_mapped t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  let rec loop p = p > last || (Hashtbl.mem t.pages p && loop (p + 1)) in
  size = 0 || loop first

let range_unmapped t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  let rec loop p = p > last || ((not (Hashtbl.mem t.pages p)) && loop (p + 1)) in
  size = 0 || loop first

let scrub_range t ~addr ~size =
  let first = Layout.page_of_addr addr in
  let last = Layout.page_of_addr (addr + size - 1) in
  let n = ref 0 in
  if size > 0 then begin
    for p = first to last do
      if Hashtbl.mem t.pages p then begin
        Hashtbl.remove t.pages p;
        incr n
      end
    done;
    t.last_page <- -1;
    t.last_dirty <- -1
  end;
  !n

let mapped_pages t = Hashtbl.length t.pages

let resident_pages t =
  Hashtbl.fold (fun _ pg n -> match pg with Data _ -> n + 1 | Zero -> n) t.pages 0

let mmap_calls t = t.mmap_calls

let page t what a =
  let p = Layout.page_of_addr a in
  if p = t.last_page then t.last_bytes
  else begin
    let bytes =
      match Hashtbl.find_opt t.pages p with
      | Some (Data d) -> d.bytes
      | Some Zero -> zero_page
      | None -> segv t a what
    in
    t.last_page <- p;
    t.last_bytes <- bytes;
    bytes
  end

(* The store-path twin of [page]: one lookup that stamps the epoch, drops
   the hash memo and materialises a [Zero] page. Both caches end up on
   the returned buffer, so the read cache never keeps serving
   [zero_page] for a page that now has a private copy. *)
let wpage t what a =
  let p = Layout.page_of_addr a in
  if p = t.last_dirty then t.last_dirty_bytes
  else begin
    let bytes =
      match Hashtbl.find_opt t.pages p with
      | Some (Data d) ->
        d.epoch <- t.epoch;
        d.hash <- no_hash;
        d.bytes
      | Some Zero ->
        let bytes = Bytes.make Layout.page_size '\000' in
        Hashtbl.replace t.pages p (Data { bytes; epoch = t.epoch; hash = no_hash });
        bytes
      | None -> segv t a what
    in
    t.last_dirty <- p;
    t.last_dirty_bytes <- bytes;
    t.last_page <- p;
    t.last_bytes <- bytes;
    bytes
  end

let page_dirty t a =
  match Hashtbl.find_opt t.pages (Layout.page_of_addr a) with
  | Some (Data _) -> true
  | Some Zero | None -> false

let advance_epoch t =
  t.epoch <- t.epoch + 1;
  (* The write cache would let a store inside the new window keep the
     old window's epoch stamp; force the slow path once per page. *)
  t.last_dirty <- -1

let epoch t = t.epoch

let dirty_in_epoch t ~addr ~size =
  if size = 0 then 0
  else begin
    let first = Layout.page_of_addr addr in
    let last = Layout.page_of_addr (addr + size - 1) in
    let n = ref 0 in
    for p = first to last do
      match Hashtbl.find_opt t.pages p with
      | Some (Data d) when d.epoch = t.epoch && t.epoch > 0 -> incr n
      | _ -> ()
    done;
    !n
  end

let find_mapped t what a =
  match Hashtbl.find_opt t.pages (Layout.page_of_addr a) with
  | Some pg -> pg
  | None -> segv t a what

let page_is_zero t a =
  match find_mapped t "is_zero" a with
  | Zero -> true
  | Data { bytes; _ } ->
    (* A store of zeros still reads as zero: the manifest stays
       content-accurate, not merely history-accurate. *)
    let words = Layout.page_size / 8 in
    let rec scan i =
      i >= words || (Bytes.get_int64_le bytes (i * 8) = 0L && scan (i + 1))
    in
    scan 0

(* Splitmix64 finalizer: FNV-1a alone mixes low bits poorly for 8-byte
   word input; the finalizer spreads every input bit over the whole
   word, which keeps the truncation to 62 bits collision-resistant. *)
let splitmix_mix h =
  let h = Int64.logxor h (Int64.shift_right_logical h 30) in
  let h = Int64.mul h 0xbf58476d1ce4e5b9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 27) in
  let h = Int64.mul h 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let page_bytes_hash bytes =
  if Bytes.length bytes <> Layout.page_size then
    invalid_arg "Address_space.page_bytes_hash: not a page-sized buffer";
  let h = ref 0xcbf29ce484222325L in
  let words = Layout.page_size / 8 in
  for i = 0 to words - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le bytes (i * 8))) 0x100000001b3L
  done;
  Int64.to_int (Int64.logand (splitmix_mix !h) 0x3FFFFFFFFFFFFFFFL)

let zero_hash = page_bytes_hash zero_page

let page_hash t a =
  match find_mapped t "page_hash" a with
  | Zero -> zero_hash
  | Data d ->
    if d.hash = no_hash then begin
      d.hash <- page_bytes_hash d.bytes;
      (* Force the next store onto [wpage]'s slow path, which drops the
         memo of whichever page it hits (see [last_dirty]). *)
      t.last_dirty <- -1
    end;
    d.hash

let page_hash_memoized t a =
  match find_mapped t "page_hash_memoized" a with
  | Zero -> false
  | Data d -> d.hash <> no_hash

(* A verified restore: the caller has checked [src] against [hash], so
   the private copy starts with that hash memoized and the next
   [page_hash] of the page is a probe, not a scan. The page is stamped
   like any store. Neither cache may keep pointing at it: the write cache
   would let the next store skip dropping the memo. *)
let install_page t a src ~hash =
  if Bytes.length src <> Layout.page_size then
    invalid_arg "Address_space.install_page: not a page-sized buffer";
  if hash < 0 then invalid_arg "Address_space.install_page: negative hash";
  let p = Layout.page_of_addr a in
  if not (Hashtbl.mem t.pages p) then segv t a "install";
  Hashtbl.replace t.pages p (Data { bytes = Bytes.copy src; epoch = t.epoch; hash });
  if t.last_page = p then t.last_page <- -1;
  if t.last_dirty = p then t.last_dirty <- -1

let shares_page t a b =
  match Hashtbl.find_opt t.pages (Layout.page_of_addr a) with
  | Some (Data d) -> d.bytes == b
  | Some Zero | None -> false

(* Raw page handles for the MVM execution engine's inlined load/store
   fast path. [page_for_read]/[page_for_write] are exactly the internal
   [page]/[wpage] lookups (including the dirty mark on the write side).
   The read handle may be the shared [zero_page], so it must never be
   written through, and it goes stale once a store materialises its
   page. Both handles alias the live page only until the next
   [munmap]/[scrub_range], so callers must drop them at every point such
   a call could run (the engine keeps them only within one uninterrupted
   run-until-event slice, where the guest cannot unmap). *)
let page_for_read t a = page t "load" a

let page_for_write t a = wpage t "store" a

let load_u8 t a = Char.code (Bytes.get (page t "load" a) (a land (Layout.page_size - 1)))

let store_u8 t a v =
  Bytes.set (wpage t "store" a) (a land (Layout.page_size - 1)) (Char.chr (v land 0xff))

(* Word accesses are frequent; fast-path the common case where the whole
   word lies inside one page. *)
let load_word t a =
  let off = a land (Layout.page_size - 1) in
  if off <= Layout.page_size - 8 then begin
    let p = page t "load" a in
    Int64.to_int (Bytes.get_int64_le p off)
  end
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor load_u8 t (a + i)
    done;
    !v
  end

let store_word t a v =
  let off = a land (Layout.page_size - 1) in
  if off <= Layout.page_size - 8 then begin
    let p = wpage t "store" a in
    Bytes.set_int64_le p off (Int64.of_int v)
  end
  else
    for i = 0 to 7 do
      store_u8 t (a + i) ((v lsr (8 * i)) land 0xff)
    done

let load_bytes t a len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (Layout.page_size - 1) in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    let p = page t "load" addr in
    Bytes.blit p off out !pos chunk;
    pos := !pos + chunk
  done;
  out

let store_bytes t a b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let addr = a + !pos in
    let off = addr land (Layout.page_size - 1) in
    let chunk = min (len - !pos) (Layout.page_size - off) in
    let p = wpage t "store" addr in
    Bytes.blit b !pos p off chunk;
    pos := !pos + chunk
  done

let store_sub t a b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Address_space.store_sub";
  let done_ = ref 0 in
  while !done_ < len do
    let addr = a + !done_ in
    let off = addr land (Layout.page_size - 1) in
    let chunk = min (len - !done_) (Layout.page_size - off) in
    let p = wpage t "store" addr in
    Bytes.blit b (pos + !done_) p off chunk;
    done_ := !done_ + chunk
  done

let blit_to_bytes t ~addr ~len dst ~pos =
  if pos < 0 || len < 0 || pos > Bytes.length dst - len then
    invalid_arg "Address_space.blit_to_bytes";
  let done_ = ref 0 in
  while !done_ < len do
    let a = addr + !done_ in
    let off = a land (Layout.page_size - 1) in
    let chunk = min (len - !done_) (Layout.page_size - off) in
    let p = page t "load" a in
    Bytes.blit p off dst (pos + !done_) chunk;
    done_ := !done_ + chunk
  done

let load_string t a len = Bytes.to_string (load_bytes t a len)

let load_cstring t a =
  let buf = Buffer.create 32 in
  let rec loop i =
    if i >= 4096 then Buffer.contents buf
    else begin
      let c = load_u8 t (a + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        loop (i + 1)
      end
    end
  in
  loop 0

let fill t ~addr ~size byte =
  let c = Char.chr (byte land 0xff) in
  let pos = ref 0 in
  while !pos < size do
    let a = addr + !pos in
    let off = a land (Layout.page_size - 1) in
    let chunk = min (size - !pos) (Layout.page_size - off) in
    let p = wpage t "store" a in
    Bytes.fill p off chunk c;
    pos := !pos + chunk
  done

(* Page-run copy between two (possibly identical) spaces: blit directly
   between the source and destination pages, chunking at whichever page
   boundary comes first, with no intermediate allocation. Only safe for
   non-overlapping ranges. *)
let blit_disjoint ~src ~src_addr ~dst ~dst_addr ~size =
  let pos = ref 0 in
  while !pos < size do
    let sa = src_addr + !pos and da = dst_addr + !pos in
    let soff = sa land (Layout.page_size - 1) in
    let doff = da land (Layout.page_size - 1) in
    let chunk =
      min (size - !pos) (min (Layout.page_size - soff) (Layout.page_size - doff))
    in
    let sp = page src "load" sa in
    let dp = wpage dst "store" da in
    Bytes.blit sp soff dp doff chunk;
    pos := !pos + chunk
  done

let copy_within t ~src ~dst ~size =
  if size > 0 then begin
    if src + size <= dst || dst + size <= src then
      blit_disjoint ~src:t ~src_addr:src ~dst:t ~dst_addr:dst ~size
    else
      (* Overlapping ranges keep the original copy-via-temporary
         semantics. *)
      store_bytes t dst (load_bytes t src size)
  end

let blit ~src ~src_addr ~dst ~dst_addr ~size =
  if size > 0 then begin
    if src != dst then blit_disjoint ~src ~src_addr ~dst ~dst_addr ~size
    else copy_within src ~src:src_addr ~dst:dst_addr ~size
  end
