(** A simulated per-node virtual address space.

    Pages are demand-zero: [mmap] declares a range mapped and reading as
    zero, but backs every page of it with one shared, never-written zero
    page; the first store to a page materialises a private copy. A
    thread's 64 KB iso-address slot therefore costs host memory only for
    the pages it touches. [munmap] unmaps a range, and any access to an
    unmapped address raises {!Segfault} — exactly the failure mode of the
    paper's Figs. 2, 4 and 9 when a migrated thread dereferences a pointer
    whose target did not follow it.

    All multi-byte accessors are little-endian. Words are 8 bytes: the
    MiniVM is a 64-bit machine, and all isomalloc headers are stored as
    words {e inside} this memory so that they are carried verbatim by an
    iso-address copy (paper, §4.2: slot chaining pointers live in the slot
    headers and stay valid after migration). *)

type t

type addr = Layout.addr

exception Segfault of { addr : addr; node : int; what : string }

val word_size : int
(** 8 bytes. *)

(** [create ~node ()] is an empty address space; [node] tags segfault
    reports. *)
val create : node:int -> unit -> t

val node : t -> int

(** {1 Mapping} *)

(** [mmap t ~addr ~size] maps the page-aligned range demand-zero: every
    page reads as zero and holds no host memory until its first store.
    @raise Invalid_argument if the range is not page aligned or any page in
    it is already mapped (MAP_FIXED without overwrite — the iso-address
    discipline must guarantee this never happens across nodes). *)
val mmap : t -> addr:addr -> size:int -> unit

(** [munmap t ~addr ~size] unmaps the range.
    @raise Invalid_argument if not page aligned or any page is not mapped. *)
val munmap : t -> addr:addr -> size:int -> unit

val is_mapped : t -> addr -> bool

(** [range_mapped t ~addr ~size] is [true] iff every byte of the range is
    mapped. *)
val range_mapped : t -> addr:addr -> size:int -> bool

(** [range_unmapped t ~addr ~size] is [true] iff no page of the range is
    mapped — the test a migration destination runs before accepting a
    thread (two-phase protocol): [mmap] at those addresses will succeed. *)
val range_unmapped : t -> addr:addr -> size:int -> bool

(** [scrub_range t ~addr ~size] unmaps whatever pages of the range happen
    to be mapped and returns how many were dropped. Unlike {!munmap} it
    tolerates holes: it is the cleanup path after a partially applied
    migration unpack is abandoned. *)
val scrub_range : t -> addr:addr -> size:int -> int

val mapped_pages : t -> int
(** Mapped page count, demand-zero pages included (what the cost model
    and [vmem.mapped_pages] count). *)

val resident_pages : t -> int
(** Materialised page count: mapped pages that some store has given a
    private copy. Never more than {!mapped_pages}. Walks the page table,
    so it is for reports and tests, not hot paths. *)

val mmap_calls : t -> int
(** Number of [mmap] invocations so far (feeds the cost model). *)

(** {1 Dirty / zero-page tracking}

    The v2 migration codec ({!Pm2_net.Codec}-style group transfers) ships
    only pages that actually hold data and {e describes} the rest. A page
    no store has touched is still demand-zero, so it is all-zero by
    construction and can be recreated at the destination by mapping
    alone. *)

val page_dirty : t -> addr -> bool
(** [page_dirty t a] is [true] iff the page containing [a] is
    materialised, i.e. some store touched it since it was mapped. Cheap
    (one table probe); never faults. *)

(** {2 Access epochs}

    Placement telemetry: {!advance_epoch} opens a new observation window
    and {!dirty_in_epoch} counts the pages of a range last stored to
    inside the current window. The balancer derives per-thread "heat"
    from these counts — no extra bookkeeping rides the store fast path,
    the epoch stamp lives in the page table entry a store materialises
    anyway. *)

val advance_epoch : t -> unit
(** Open a new observation window. Stores from now on stamp the new
    epoch; earlier stores no longer count as current-window heat. *)

val epoch : t -> int
(** The current observation window (0 before the first
    {!advance_epoch} — heat reads 0 in that pre-history window). *)

val dirty_in_epoch : t -> addr:addr -> size:int -> int
(** [dirty_in_epoch t ~addr ~size] — how many pages of the range were
    last stored to in the current window. Never faults; unmapped pages
    count 0. *)

val page_is_zero : t -> addr -> bool
(** [page_is_zero t a] is [true] iff the mapped page containing [a] is
    currently all-zero. Demand-zero pages answer in O(1); materialised
    pages are scanned word-wise (a store of zeros is re-detected as zero,
    so the manifest stays content-accurate, not merely
    history-accurate). @raise Segfault if the page is unmapped. *)

(** {1 Page content hashing (delta migration)}

    The v3 delta codec classifies pages by a 62-bit content hash
    (FNV-1a 64 over the page's 8-byte words, splitmix-mixed, folded to a
    non-negative OCaml int). A demand-zero page answers one precomputed
    constant; a materialised page's hash is memoized in its page table
    entry and dropped by the next store to it, so re-hashing an untouched
    page is a table probe, never a page scan. *)

val page_hash : t -> addr -> int
(** [page_hash t a] is the content hash of the mapped page containing
    [a]; memoized until the next store to that page. Equal to
    [page_bytes_hash (Bytes.make 4096 '\000')] for a demand-zero page.
    @raise Segfault if the page is unmapped. *)

val page_bytes_hash : Bytes.t -> int
(** [page_bytes_hash b] hashes a detached page-sized buffer with the same
    function as {!page_hash} — the destination-side validator for cached
    residual pages. @raise Invalid_argument if [b] is not exactly one
    page long. *)

val page_hash_memoized : t -> addr -> bool
(** [true] iff the page holds a memoized hash, i.e. {!page_hash} will
    answer without scanning it. Demand-zero pages answer [false] (their
    hash is a constant, never memoized). @raise Segfault if unmapped. *)

(** [install_page t a src ~hash] makes the mapped page at [a] a private
    copy of [src] ([Bytes.copy]: no zero-fill, no later aliasing of
    [src]) with [hash] already memoized, and stamps it like a store. The
    caller vouches that [hash = page_bytes_hash src] — the verified
    restore of a delta [Cached] page, whose hash check already scanned
    it. @raise Invalid_argument if [src] is not one page long or [hash]
    is negative. @raise Segfault if the page is unmapped. *)
val install_page : t -> addr -> Bytes.t -> hash:int -> unit

(** [shares_page t a b] is [true] iff the page mapped at [a] is backed by
    [b] itself ([==]) — the check that a retained residual page never
    aliases live memory. Touches no cache; never faults. *)
val shares_page : t -> addr -> Bytes.t -> bool

(** {1 Typed access} *)

(** [page_for_read t a] is the live page buffer containing [a] — the
    building block of the MVM engine's inlined word-access fast path.
    For a demand-zero page it is the shared zero page: it must never be
    written through, and it goes stale as soon as a store (through
    {!page_for_write} or any store function) materialises that page, so a
    caller caching it must refresh or drop it then. Any handle stays
    valid only until the next {!munmap}/{!scrub_range}; callers must
    re-fetch it at any point such a call could run.
    @raise Segfault if the page is unmapped. *)
val page_for_read : t -> addr -> Bytes.t

(** [page_for_write t a] is the page's private buffer, materialised
    first if the page is demand-zero, with the bookkeeping of a store
    applied ({!page_dirty}, access epochs, hash-memo invalidation) — use
    it before writing into the returned buffer. Subsequent direct writes
    to the same page within one uninterrupted slice need no re-mark: the
    page is already stamped with the current epoch.
    @raise Segfault if the page is unmapped. *)
val page_for_write : t -> addr -> Bytes.t

val load_u8 : t -> addr -> int
val store_u8 : t -> addr -> int -> unit

val load_word : t -> addr -> int
(** 8-byte little-endian load. @raise Segfault on unmapped access. *)

val store_word : t -> addr -> int -> unit

val load_bytes : t -> addr -> int -> Bytes.t
val store_bytes : t -> addr -> Bytes.t -> unit

(** [store_sub t addr b ~pos ~len] writes [b[pos .. pos+len-1]] at [addr]
    without materialising the sub-range — the zero-copy counterpart of
    [store_bytes] for unpacking length-prefixed views straight off the
    wire. @raise Invalid_argument if [pos]/[len] fall outside [b]. *)
val store_sub : t -> addr -> Bytes.t -> pos:int -> len:int -> unit

(** [blit_to_bytes t ~addr ~len dst ~pos] copies the range into
    [dst[pos .. pos+len-1]] page run by page run — the copy-out a
    migration packer uses to write simulated memory straight into its
    wire buffer. @raise Segfault on unmapped access.
    @raise Invalid_argument if the window falls outside [dst]. *)
val blit_to_bytes : t -> addr:addr -> len:int -> Bytes.t -> pos:int -> unit

val load_string : t -> addr -> int -> string

(** [load_cstring t addr] reads a NUL-terminated string (bounded at 4 KB to
    keep runaway reads from looping forever). *)
val load_cstring : t -> addr -> string

(** [fill t ~addr ~size byte] writes [size] copies of [byte]. *)
val fill : t -> addr:addr -> size:int -> int -> unit

(** [copy_within t ~src ~dst ~size] copies inside one space. Disjoint
    ranges blit page-to-page with no intermediate allocation; overlapping
    ranges go through a temporary. *)
val copy_within : t -> src:addr -> dst:addr -> size:int -> unit

(** [blit ~src ~src_addr ~dst ~dst_addr ~size] copies bytes across spaces —
    the heart of an iso-address migration when [src_addr = dst_addr].
    Distinct spaces blit directly page run by page run. *)
val blit : src:t -> src_addr:addr -> dst:t -> dst_addr:addr -> size:int -> unit
