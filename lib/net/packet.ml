(* A packer is a growable byte buffer with a write cursor. [contents]
   hands the buffer itself over when it is exactly full — a pre-sized
   packer thus produces its message with no final copy — and marks it
   [shared], so a later write reallocates rather than scribbling on
   bytes the caller now owns. *)
type packer = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable shared : bool;
}

let packer ?(size = 256) () = { buf = Bytes.create (max 0 size); len = 0; shared = false }

(* Claim [n] bytes at the cursor and return their offset. *)
let reserve p n =
  let need = p.len + n in
  if need > Bytes.length p.buf || p.shared then begin
    let cap = max need (if need > Bytes.length p.buf then 2 * Bytes.length p.buf else 0) in
    let b = Bytes.create cap in
    Bytes.blit p.buf 0 b 0 p.len;
    p.buf <- b;
    p.shared <- false
  end;
  let off = p.len in
  p.len <- need;
  off

let pack_int p v = Bytes.set_int64_le p.buf (reserve p 8) (Int64.of_int v)

let pack_float p v = Bytes.set_int64_le p.buf (reserve p 8) (Int64.bits_of_float v)

let pack_sub p b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then invalid_arg "Packet.pack_sub";
  pack_int p len;
  Bytes.blit b pos p.buf (reserve p len) len

let pack_bytes p b = pack_sub p b ~pos:0 ~len:(Bytes.length b)

let pack_string p s =
  let len = String.length s in
  pack_int p len;
  Bytes.blit_string s 0 p.buf (reserve p len) len

(* [blit_to_bytes] fills the whole window or raises; on a raise the
   window is given back, so no byte of the reserved (uninitialised)
   buffer is ever packed unwritten. *)
let pack_mem_unprefixed p space ~addr ~len =
  if len < 0 then invalid_arg "Packet.pack_mem_unprefixed";
  let pos = reserve p len in
  try Pm2_vmem.Address_space.blit_to_bytes space ~addr ~len p.buf ~pos
  with e ->
    p.len <- pos;
    raise e

let pack_mem p space ~addr ~len =
  if len < 0 then invalid_arg "Packet.pack_mem";
  let start = p.len in
  pack_int p len;
  try pack_mem_unprefixed p space ~addr ~len
  with e ->
    p.len <- start;
    raise e

let pack_list p f l =
  pack_int p (List.length l);
  List.iter f l

let pack_int_slot p = reserve p 8

let patch_int p off v =
  if off < 0 || off > p.len - 8 then invalid_arg "Packet.patch_int";
  if p.shared then ignore (reserve p 0);
  Bytes.set_int64_le p.buf off (Int64.of_int v)

(* Zigzag folds the sign bit into bit 0 so small negative values stay
   small on the wire; LEB128 then emits 7 bits per byte. *)
let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor (- (z land 1))

let pack_varint p v =
  let z = ref (zigzag v) in
  let continue = ref true in
  while !continue do
    let b = !z land 0x7f in
    z := !z lsr 7;
    if !z = 0 then begin
      Bytes.unsafe_set p.buf (reserve p 1) (Char.unsafe_chr b);
      continue := false
    end
    else Bytes.unsafe_set p.buf (reserve p 1) (Char.unsafe_chr (b lor 0x80))
  done

let packed_size p = p.len

let contents p =
  if p.len = Bytes.length p.buf then begin
    p.shared <- true;
    p.buf
  end
  else Bytes.sub p.buf 0 p.len

(* An unpacker reads the window [pos, limit) of its buffer. *)
type unpacker = {
  data : Bytes.t;
  mutable pos : int;
  limit : int;
}

let unpacker_sub data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then
    invalid_arg "Packet.unpacker_sub";
  { data; pos; limit = pos + len }

let unpacker data = { data; pos = 0; limit = Bytes.length data }

let need u n =
  if n < 0 || u.pos + n > u.limit then invalid_arg "Packet: truncated buffer"

let unpack_int u =
  need u 8;
  let v = Int64.to_int (Bytes.get_int64_le u.data u.pos) in
  u.pos <- u.pos + 8;
  v

let unpack_float u =
  need u 8;
  let v = Int64.float_of_bits (Bytes.get_int64_le u.data u.pos) in
  u.pos <- u.pos + 8;
  v

let unpack_view u =
  let len = unpack_int u in
  need u len;
  let pos = u.pos in
  u.pos <- u.pos + len;
  (u.data, pos, len)

let unpack_bytes u =
  let data, pos, len = unpack_view u in
  Bytes.sub data pos len

let unpack_string u =
  let data, pos, len = unpack_view u in
  Bytes.sub_string data pos len

let unpack_list u f =
  let n = unpack_int u in
  List.init n (fun _ -> f ())

let unpack_varint u =
  let z = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    need u 1;
    let b = Char.code (Bytes.get u.data u.pos) in
    u.pos <- u.pos + 1;
    if !shift >= Sys.int_size then invalid_arg "Packet: varint overflow";
    z := !z lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  unzigzag !z

let unpack_take u len =
  if len < 0 then invalid_arg "Packet.unpack_take: negative length";
  need u len;
  let pos = u.pos in
  u.pos <- u.pos + len;
  (u.data, pos)

let remaining u = u.limit - u.pos

(* Word-at-a-time FNV-1a 64 for end-to-end wire integrity checks
   (reliable delivery, migration transfer). The length is folded in
   first, so appending or dropping zero bytes changes the sum; the tail
   bytes fold in one at a time; the splitmix64 finalizer spreads every
   input bit before the fold to a non-negative OCaml int. The
   accumulator is a local [Int64] ref that no closure captures, so the
   native compiler keeps it unboxed: the loop allocates nothing. *)
let fnv_prime = 0x100000001b3L

(* The splitmix64 finalizer [Address_space.page_hash] ends with. It is
   repeated here rather than called: a call across the module boundary
   would box its [Int64] argument and result. *)
let[@inline] mix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 30) in
  let h = Int64.mul h 0xbf58476d1ce4e5b9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 27) in
  let h = Int64.mul h 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let checksum_sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Packet.checksum_sub";
  let h = ref (Int64.mul (Int64.logxor 0xcbf29ce484222325L (Int64.of_int len)) fnv_prime) in
  let words = len lsr 3 in
  for i = 0 to words - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b (pos + (i lsl 3)))) fnv_prime
  done;
  for i = pos + (words lsl 3) to pos + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i)))) fnv_prime
  done;
  Int64.to_int (Int64.logand (mix64 !h) 0x3FFFFFFFFFFFFFFFL)

let checksum b = checksum_sub b ~pos:0 ~len:(Bytes.length b)
