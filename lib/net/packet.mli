(** Madeleine-style pack/unpack buffers.

    PM2's migration protocol copies the thread resources into a
    communication buffer, ships it, and unpacks on the destination (paper,
    §2). We reproduce that with real byte buffers so that message sizes —
    which drive the network cost model — are faithful to what is actually
    packed (descriptor fields, slot headers, live blocks). *)

(** {1 Packing} *)

type packer

(** [packer ?size ()] is an empty packer with room for [size] bytes
    (default 256); it grows by doubling past that. A packer sized to its
    exact message hands that buffer over from {!contents} with no copy. *)
val packer : ?size:int -> unit -> packer

val pack_int : packer -> int -> unit
(** 8 bytes, little-endian. *)

val pack_float : packer -> float -> unit

val pack_bytes : packer -> Bytes.t -> unit
(** Length-prefixed byte block. *)

(** [pack_sub p b ~pos ~len] packs the slice [b[pos .. pos+len-1]] as a
    length-prefixed block — {!pack_bytes} without first copying the
    slice out. @raise Invalid_argument if the slice falls outside [b]. *)
val pack_sub : packer -> Bytes.t -> pos:int -> len:int -> unit

val pack_string : packer -> string -> unit

val pack_list : packer -> ('a -> unit) -> 'a list -> unit
(** Length-prefixed list; elements packed by the callback. *)

(** [pack_mem p space ~addr ~len] packs the [len] bytes of simulated
    memory at [addr] as a length-prefixed block, copied page run by page
    run straight into the wire buffer — {!pack_bytes} of
    [Address_space.load_bytes space addr len] without the intermediate
    copy, the way the migration packer streams memory onto the wire.
    @raise Invalid_argument if [len] is negative.
    @raise Pm2_vmem.Address_space.Segfault if the range is unmapped;
    either way nothing is packed. *)
val pack_mem : packer -> Pm2_vmem.Address_space.t -> addr:int -> len:int -> unit

(** [pack_varint p v] packs [v] as a zigzag-folded LEB128 varint: the
    sign bit moves to bit 0, then 7 bits per wire byte, high bit set on
    all but the last. Values in [-64, 63] take one byte; slot-sized
    addresses take 5 — the compact integer encoding of the v2 migration
    codec ({!Codec}). *)
val pack_varint : packer -> int -> unit

(** [pack_mem_unprefixed] is {!pack_mem} with {e no} length prefix —
    for codec layers that already know the length from their own framing
    (e.g. fixed-size page images). *)
val pack_mem_unprefixed : packer -> Pm2_vmem.Address_space.t -> addr:int -> len:int -> unit

(** [pack_int_slot p] packs a placeholder word and returns its offset,
    for a header field (a length, a checksum) known only once later
    fields are packed. Fill it with {!patch_int}. *)
val pack_int_slot : packer -> int

(** [patch_int p off v] overwrites the packed word at [off].
    @raise Invalid_argument if [off] is not a packed word. *)
val patch_int : packer -> int -> int -> unit

val packed_size : packer -> int

(** [contents p] is the packed message. When the packer is exactly full
    this is its buffer itself, handed over: later writes to [p] copy it
    first, so the result never changes under the caller. *)
val contents : packer -> Bytes.t

(** {1 Unpacking} *)

type unpacker

val unpacker : Bytes.t -> unpacker

(** [unpacker_sub b ~pos ~len] reads only the window
    [b[pos .. pos+len-1]]: {!remaining} counts to its end, and reading
    past it fails as truncation. Parsers of nested frames use it to
    read an inner message in place instead of copying it out.
    @raise Invalid_argument if the window falls outside [b]. *)
val unpacker_sub : Bytes.t -> pos:int -> len:int -> unpacker

val unpack_int : unpacker -> int
val unpack_float : unpacker -> float
val unpack_bytes : unpacker -> Bytes.t
val unpack_string : unpacker -> string
val unpack_list : unpacker -> (unit -> 'a) -> 'a list

(** [unpack_view u] consumes a length-prefixed block like {!unpack_bytes}
    but returns a [(data, pos, len)] view into the wire buffer instead of
    copying it out. The view is read-only by convention; it aliases the
    unpacker's buffer. *)
val unpack_view : unpacker -> Bytes.t * int * int

(** [unpack_varint u] reads one {!pack_varint} integer.
    @raise Invalid_argument on truncation or overflow. *)
val unpack_varint : unpacker -> int

(** [unpack_take u len] consumes the next [len] un-prefixed bytes and
    returns an aliasing [(data, pos)] view — the inverse of
    {!pack_mem_unprefixed}.
    @raise Invalid_argument if fewer than [len] bytes remain. *)
val unpack_take : unpacker -> int -> Bytes.t * int

val remaining : unpacker -> int
(** Bytes not yet consumed (0 after a complete unpack). *)

(** {1 Integrity} *)

val checksum : Bytes.t -> int
(** Word-at-a-time FNV-1a 64 over the whole buffer, folded to a
    non-negative OCaml [int]. Used by the reliable-delivery layer and
    the two-phase migration protocol to detect corrupted wire buffers.
    Definition, for [len] bytes:
    {ol
    {- [h := (0xcbf29ce484222325 lxor len) * 0x100000001b3] — the length
       is folded in first, so appending or removing a zero byte changes
       the sum;}
    {- for each full 8-byte little-endian word [w]:
       [h := (h lxor w) * 0x100000001b3];}
    {- for each of the [len mod 8] tail bytes [c], in order:
       [h := (h lxor c) * 0x100000001b3];}
    {- the result is the splitmix64 finalizer of [h] (the one
       {!Pm2_vmem.Address_space.page_hash} ends with: [h ^= h >>> 30;
       h *= 0xbf58476d1ce4e5b9; h ^= h >>> 27; h *= 0x94d049bb133111eb;
       h ^= h >>> 31]) with its top two bits cleared.}}
    Arithmetic is modulo 2{^64}. Each step is a bijection of [h], so any
    single-byte change alters the 64-bit value before the 62-bit fold.
    The loop allocates nothing. *)

val checksum_sub : Bytes.t -> pos:int -> len:int -> int
(** [checksum_sub b ~pos ~len] is [checksum (Bytes.sub b pos len)]
    without the copy — receivers verify a frame's inner slice in place.
    @raise Invalid_argument if the slice falls outside [b]. *)
