(** Versioned migration wire codec.

    PM2's original migration message (v1) ships every used byte of every
    slot. The v2 codec, used by the group-migration train, frames its
    payload with an explicit version header and encodes each slot as a
    {e page manifest} plus the raw bytes of only the pages that hold
    data. Untouched and all-zero pages are {e described, not shipped}:
    the destination recreates them for free because
    {!Pm2_vmem.Address_space.mmap} maps pages demand-zero (zero-page
    elision).

    The v3 codec extends the manifest with a third page class, [Cached]:
    a page whose 62-bit content hash matches what the destination is
    believed to retain from a previous hop of the same thread is shipped
    as its hash alone, and the destination reconstructs it from its
    residual image cache — delta migration.

    Frame layout (all fixed fields 8-byte LE words):
    {v
      +--------+---------+-----------------+---------------------+
      | "PM2C" | version |  payload length |   payload bytes...  |
      +--------+---------+-----------------+---------------------+
    v}

    A buffer that does not start with the ["PM2C"] magic is treated as a
    bare v1 payload, so pre-codec wire images (and the single-thread
    migration path, which still emits them) remain decodable.

    Range encoding (inside a v2 payload), per slot:
    {v
      varint run_count
      run_count x varint (pages << 1 | data?)     RLE page manifest
      raw page bytes of every data run, in order  (no per-page framing)
    v}

    Range encoding (inside a v3 payload), per slot:
    {v
      varint run_count
      run_count x [ varint (pages << 2 | class)   class: 0=Zero 1=Data 2=Cached
                    if class = Cached:
                      pages x 8-byte LE content hash ]
      raw page bytes of every Data run, in order  (no per-page framing)
    v}

    Varints are zigzag LEB128 ({!Packet.pack_varint}). *)

(** Wire format generations. [V1] is the original full-copy encoding;
    [V2] adds the page manifest with zero-page elision; [V3] adds the
    [Cached] page class for delta transfers. *)
type version = V1 | V2 | V3

val version_name : version -> string
(** ["v1"] / ["v2"] / ["v3"], for logs and error messages. *)

(** [frame ?trace version payload] wraps [payload] in a versioned frame.
    [trace] is a [(trace id, parent span id)] causal-trace context:
    when present, a flag bit is set in the version word and the two ids
    travel as extra words between the version and the payload. Without
    [trace] the frame is byte-for-byte the historic layout, so
    tracing-off runs put exactly the same bytes on the wire. *)
val frame : ?trace:int * int -> version -> Bytes.t -> Bytes.t

(** [begin_frame ?trace p version] packs a {!frame} header whose payload
    length is still open and returns the slot to close; everything packed
    next is the payload, and [end_frame p slot] fills in its length. The
    result is byte-for-byte [frame ?trace version payload], built without
    copying the payload. *)
val begin_frame : ?trace:int * int -> Packet.packer -> version -> int

val end_frame : Packet.packer -> int -> unit

(** [parse buf] splits a frame into its version and payload. Buffers
    without the frame magic parse as [(V1, buf)] — backwards
    compatibility with bare legacy migration images. Errors on unknown
    versions, truncation and trailing garbage. *)
val parse : Bytes.t -> (version * Bytes.t, string) result

(** Typed decode errors. Fault-injected corruption must surface as a
    value the protocol layer can act on (nack, rollback, resend), never
    as an exception escaping the codec. *)
type error =
  | Bad_version of int  (** frame header names a version we don't speak *)
  | Bad_manifest of string  (** structurally invalid manifest or payload *)

val error_to_string : error -> string

(** [decode buf] is {!parse} with typed errors. *)
val decode : Bytes.t -> (version * Bytes.t, error) result

(** [decode_traced buf] is {!decode} plus the frame's trace context (if
    the trace flag is set) — what the destination parents its spans
    through. Bare v1 buffers and untraced frames yield [None]. *)
val decode_traced : Bytes.t -> (version * (int * int) option * Bytes.t, error) result

(** [decode_view buf ~pos ~len] is {!decode_traced} on the window
    [buf[pos .. pos+len-1]], returning the payload as a [(data, pos, len)]
    view into [buf] instead of a copy — the receive path of a group
    migration, which parses the image where the wire put it. *)
val decode_view :
  Bytes.t ->
  pos:int ->
  len:int ->
  (version * (int * int) option * (Bytes.t * int * int), error) result

(** Per-page classification of a slot image: v2 manifests use [Zero]
    and [Data], v3 adds [Cached]. *)
type page_class =
  | Zero  (** all-zero; recreated by mapping alone *)
  | Data  (** shipped verbatim *)
  | Cached of int
      (** content hash matches the destination's believed residual copy;
          only the hash travels *)

(** One v2 manifest entry: [pages] consecutive pages that either all
    carry data ([data = true], shipped verbatim) or are all zero
    ([data = false], elided). *)
type run = {
  data : bool;
  pages : int;
}

(** [manifest space ~addr ~size] classifies the page-aligned range into
    maximal data/zero runs by content ({!Pm2_vmem.Address_space.page_is_zero}
    — clean pages classify without being read).
    @raise Invalid_argument if [size] is not a positive multiple of the
    page size. *)
val manifest : Pm2_vmem.Address_space.t -> addr:int -> size:int -> run list

(** [encode_range p space ~addr ~size] appends the manifest and the data
    pages of the range to [p]; returns [(data_pages, zero_pages)]. *)
val encode_range :
  Packet.packer -> Pm2_vmem.Address_space.t -> addr:int -> size:int -> int * int

(** [encode_manifest p space ~addr runs] is {!encode_range} for runs the
    caller already holds ([manifest] of the same range). *)
val encode_manifest :
  Packet.packer -> Pm2_vmem.Address_space.t -> addr:int -> run list -> int * int

(** [decode_range u space ~addr ~size] reads one {!encode_range} image
    and stores the data pages into [space], which must already have the
    whole range freshly mapped (zero runs are left untouched). Returns
    the number of data pages stored; [on_page a Data] is called for each
    of them.
    @raise Invalid_argument if the manifest does not cover [size] or the
    buffer is truncated. *)
val decode_range :
  ?on_page:(int -> page_class -> unit) ->
  Packet.unpacker -> Pm2_vmem.Address_space.t -> addr:int -> size:int -> int

(** [try_decode_range] is {!decode_range} with corruption reported as
    [Error (Bad_manifest _)] instead of an exception. *)
val try_decode_range :
  Packet.unpacker ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  (int, error) result

(** {1 v3 delta manifests} *)

(** [delta_manifest space ~addr ~size ~known] classifies each page of the
    range: all-zero pages are [Zero]; a page whose
    {!Pm2_vmem.Address_space.page_hash} equals [known addr] is
    [Cached hash]; everything else is [Data]. [known] is the sender's
    knowledge of what the destination retains for this thread (page
    address → hash), typically from the delta cache.
    @raise Invalid_argument if [size] is not a positive multiple of the
    page size. *)
val delta_manifest :
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  known:(int -> int option) ->
  page_class list

(** [encode_delta_range p space ~addr ~size ~known] appends the v3
    manifest (with inline hashes for [Cached] runs) and the raw bytes of
    the [Data] runs to [p]; returns
    [(data_pages, zero_pages, cached_pages)]. *)
val encode_delta_range :
  Packet.packer ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  known:(int -> int option) ->
  int * int * int

(** [encode_delta_manifest p space ~addr classes] is
    {!encode_delta_range} for a classification the caller already holds
    ([classes] from {!delta_manifest} of the same range): a packer that
    also needs the classes (to retain the non-zero pages) classifies each
    page once. *)
val encode_delta_manifest :
  Packet.packer -> Pm2_vmem.Address_space.t -> addr:int -> page_class list -> int * int * int

(** [decode_delta_range u space ~addr ~size ~restore] reads one
    {!encode_delta_range} image into [space] (whole range freshly
    mapped). For each [Cached] page it calls
    [restore ~addr ~hash]; the callback must blit the retained page at
    [addr] and return [true] only if its content hash matches [hash].
    Pages whose restore fails are collected (in address order) into the
    returned missing list [(addr, hash)] for the caller to fetch via the
    full-resend fallback. Returns [(data_pages, missing)]. [on_page a c]
    is called for every non-zero page, [Data] or [Cached hash] (restored
    or not), so a caller learns the image's page hashes without
    classifying the range again.
    @raise Invalid_argument if the manifest is structurally invalid. *)
val decode_delta_range :
  ?on_page:(int -> page_class -> unit) ->
  Packet.unpacker ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  restore:(addr:int -> hash:int -> bool) ->
  int * (int * int) list

(** [try_decode_delta_range] is {!decode_delta_range} with corruption
    reported as [Error (Bad_manifest _)] instead of an exception. *)
val try_decode_delta_range :
  Packet.unpacker ->
  Pm2_vmem.Address_space.t ->
  addr:int ->
  size:int ->
  restore:(addr:int -> hash:int -> bool) ->
  (int * (int * int) list, error) result
