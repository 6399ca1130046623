(** Value containers (§2.2 of the paper): all data values reached by
    the same root-to-leaf path live together as records
    [<compressed value, parent pointer>], sorted lexicographically by
    compressed value — not document order — so equality and (for
    order-preserving codecs) range predicates run as binary searches in
    the compressed domain.

    Since repository format v2 the sorted sequence is physically split
    into fixed-budget compressed {e blocks} (~16 KiB of plaintext each
    by default). Each block header carries the record count and the
    min/max compressed value of its slice, so every access path below
    prunes whole blocks from headers alone and decodes — through the
    shared {!Buffer_pool} — only the blocks a predicate actually
    touches. *)

(** Containers hold either text nodes or attribute values. *)
type kind = Text | Attribute

(** One container record: the compressed value and the structure-tree id
    of the parent element (the "value pointer" inverse). *)
type record = { code : string; parent : int }

(** One compressed block: a contiguous slice of the sorted record
    sequence.

    Invariants: [b_min] is [<=] and [b_max] is [>=] every code in the
    block (conservative bounds capped at ~8 bytes, derived from the
    slice's first and last codes — pruning stays correct, headers stay
    tiny even for long-code codecs); [b_exact] records whether both
    bounds are the {e actual} boundary codes (it is false whenever a
    boundary code exceeded the cap, in which case [b_max]
    over-estimates and [b_min] under-estimates — overlap/pruning tests
    stay sound, but any consumer wanting equality or containment
    conclusions from the bounds must check the bit); consecutive blocks
    cover consecutive index ranges ([b_start] strictly increasing, next
    [b_start] = [b_start + b_count]); [b_payload] is a
    {!Compress.Codec.encode_block} image decoding to exactly [b_count]
    records. *)
type block = {
  b_start : int;
  b_count : int;
  b_min : string;
  b_max : string;
  b_exact : bool;
  b_plain : int;
  b_payload : string;
}

type t = {
  id : int;  (** repository-local container id (value pointers refer to it) *)
  uid : int;  (** process-unique identity used for buffer-pool keys *)
  path : string;  (** root-to-leaf path, e.g. ["/site/people/person/name/#text"] *)
  kind : kind;
  mutable algorithm : Compress.Codec.algorithm;
  mutable model : Compress.Codec.model;
  mutable model_id : int;  (** containers sharing a source model share this id *)
  mutable blocks : block array;
  mutable n_records : int;
  mutable plain_bytes : int;  (** total plaintext bytes (stats / cost model) *)
  mutable generation : int;  (** bumped on {!recompress}; part of the pool key *)
  mutable distinct_parents : bool;
      (** no two records share a parent pointer. Precomputed at build /
          recompress time and stored in the v2 image (recomputed when
          loading v1), so bare-element existence predicates can take the
          header-pruned path instead of scanning every block to check
          distinctness. *)
  mutable sorted_run : bool;
      (** the record sequence was verified sorted by (code, parent) —
          the precondition for the executor's block-interval merge join.
          Checked by an O(n) adjacent-pair scan at build / v1-load time
          and persisted in the v2 flags byte; v2 images written before
          the flag existed load as [false], conservatively keeping the
          block join off for them. *)
  mutable block_size : int;
      (** target plaintext bytes per block this container was chunked
          with. Per container since the adaptive-sizing pass; persisted
          behind flags bit 3 of the wire image whenever it differs from
          the built-in 16384 default (or the epoch is non-zero), so
          pre-extension images re-save byte-identically. *)
  mutable compaction_epoch : int;
      (** number of times this container has been re-blocked by the
          compactor ({!reblocked}); 0 at build, persisted alongside
          [block_size]. *)
}

(** Header-only projection of one block: bounds, cardinality and stored
    payload size, with {e no} payload fetch and no buffer-pool traffic.
    [h_block] is the block's index; the other fields mirror the
    corresponding {!block} fields ([h_payload_bytes] is the stored
    payload's length — the bytes a decode would read). This is the view
    the executor's block-interval join plans from before deciding which
    blocks (if any) to decode. *)
type header = {
  h_block : int;
  h_start : int;
  h_count : int;
  h_min : string;
  h_max : string;
  h_exact : bool;
  h_payload_bytes : int;
}

(** [header t i] is the header-only view of block [i]. *)
val header : t -> int -> header

(** All block headers in block order. Pure projection: never decodes a
    payload. Because blocks are contiguous slices of the sorted record
    sequence, the [h_min] and [h_max] sequences are both non-decreasing,
    which is what makes a two-pointer interval merge over two sides'
    headers sound. *)
val headers : t -> header array

(** Number of records (across all blocks). *)
val length : t -> int

(** Number of physical blocks. *)
val block_count : t -> int

(** Set the target plaintext bytes per block for subsequently built
    containers (the benchmark's block-size sweep). Raises
    [Invalid_argument] on a non-positive size. *)
val set_default_block_size : int -> unit

(** Current block-size target in bytes (initially 16384). *)
val default_block_size : unit -> int

(** Declared access pattern of a container, the input of
    {!pick_block_size}: dominated by scans/wildcards ([Seq_heavy]),
    dominated by selective point predicates ([Random_selective]), or
    anything in between ([Mixed]). *)
type access_pattern = Seq_heavy | Random_selective | Mixed

(** [pick_block_size ~plain_bytes ~n_records ~access] is the build-time
    per-container sizing heuristic: sequential-heavy containers get 4×
    the {!default_block_size} (per-block costs amortize over big
    blocks), selective-random ones get ¼ (an eq predicate decodes
    little), mixed keeps the default — floored at 8 average values per
    block and clamped to {!clamp_block_size}'s [1 KiB, 256 KiB] range.
    Deterministic: depends only on its arguments and the configured
    default. *)
val pick_block_size : plain_bytes:int -> n_records:int -> access:access_pattern -> int

(** Clamp a proposed block size into the supported [1024, 262144] byte
    range (used by every adaptive path: build-time sizing, profile-seeded
    sizes, compaction plans). *)
val clamp_block_size : int -> int

(** Sequential read-ahead depth in {e blocks} (process-wide; default
    [0] = off). When positive, a block fetch that continues a sequential
    run — this domain's previous fetch was the preceding block of the
    same container, per {!Xquec_obs.Heat}'s run slots — speculatively
    decodes up to this many following blocks into the {!Buffer_pool}
    through {!Domain_pool.submit} (inline when the pool is sequential).
    Prefetch decodes are pool [prefetch_fills], not misses, and charge
    no query budget. Requires heat accounting to be on (the default);
    with it off, runs are never detected and read-ahead never fires.
    Raises [Invalid_argument] on a negative depth. *)
val set_prefetch_depth : int -> unit

(** Current read-ahead depth (blocks). *)
val prefetch_depth : unit -> int

(** [build ~id ~path ~kind ~algorithm values] trains a fresh source
    model on the [(value, parent)] pairs, compresses them, sorts by
    (code, parent) and chunks into blocks of [?block_size] (default
    {!default_block_size}) plaintext bytes. *)
val build :
  ?block_size:int ->
  id:int ->
  path:string ->
  kind:kind ->
  algorithm:Compress.Codec.algorithm ->
  (string * int) list ->
  t

(** Assemble a container from records {e already sorted} by
    (code, parent) — used by the loader, which sorts records itself to
    derive its sequence-to-index maps. [plain_sizes.(i)] is the exact
    plaintext length of record [i]; when omitted, block budgeting falls
    back to the container-average estimate [plain_bytes / n]. *)
val of_sorted_records :
  ?block_size:int ->
  ?plain_sizes:int array ->
  id:int ->
  path:string ->
  kind:kind ->
  algorithm:Compress.Codec.algorithm ->
  model:Compress.Codec.model ->
  model_id:int ->
  plain_bytes:int ->
  record array ->
  t

(** All [(plaintext, parent)] pairs in record (compressed-value) order;
    decompresses every value. *)
val dump : t -> (string * int) list

(** [recompress t ~algorithm ~model ~model_id] re-encodes every value
    with the new (typically shared) model, re-sorts, re-blocks, bumps
    the generation and invalidates the container's buffer-pool entries.
    Returns the permutation old index -> new index so callers can patch
    value pointers. [model] must have been trained on a superset of this
    container's values. *)
val recompress :
  t ->
  algorithm:Compress.Codec.algorithm ->
  model:Compress.Codec.model ->
  model_id:int ->
  int array

(** [reblock t ~block_size] re-chunks the container in place at a new
    target block size. Unlike {!recompress} the record sequence (codes,
    parents, order) is untouched — no model retraining, no pointer
    remap, [distinct_parents]/[sorted_run] carry over — so callers need
    no fix-ups. Bumps the generation and invalidates the pool entries.
    Used by the build-time sizing pass ([xquec compress]); the online
    compactor uses {!reblocked}. Raises [Invalid_argument] on a
    non-positive size. *)
val reblock : t -> block_size:int -> unit

(** [reblocked t ~block_size] is the copy-on-write variant of
    {!reblock}: returns a {e fresh} container (new pool uid, generation
    0, [compaction_epoch] bumped by one) holding the same record
    sequence re-chunked at [block_size], leaving [t] fully usable for
    in-flight readers. The caller is expected to swap the result into
    the repository's container slot and then invalidate [t]'s pool
    entries ({!Buffer_pool.invalidate_container}) — which is exactly
    what {!Compactor.compact_container} does. *)
val reblocked : t -> block_size:int -> t

(** ContScan: every record in compressed-value order. Decodes all
    blocks (the pruning access paths below exist to avoid this) — in
    parallel on the {!Domain_pool} when one is configured. Decoded
    blocks are admitted at the buffer pool's LRU tail
    ({!Buffer_pool.Tail}), so a full scan cannot flush the pool's hot
    working set. *)
val scan : t -> record array

(** [fetch_blocks t ~b0 ~b1] decodes blocks [b0..b1] (inclusive) and
    returns their images in block order — the batch decode path behind
    {!scan}, {!range}, {!lookup_eq}, {!lookup_range} and {!dump}.
    Already-resident blocks are fetched on the calling domain (hits);
    the absent ones are decoded as one {!Domain_pool} batch, installing
    into the {!Buffer_pool} as they complete. With a pool of size 0, or
    fewer than two absent blocks, everything runs sequentially on the
    calling domain, with counters identical to the historical
    single-threaded path. Empty ranges ([b1 < b0]) yield [[||]].
    [?admission] (default {!Buffer_pool.Mru}) is the pool admission
    policy for miss-decoded blocks.

    Budget enforcement: the calling domain's armed
    {!Xquec_obs.Budget} (if any) is polled at entry and at each block
    fetch, and decoded bytes are charged to it — the handle is captured
    here on the evaluating domain so charges attribute correctly even
    when the decode itself runs on a pool worker. An exhausted budget
    raises {!Xquec_obs.Budget.Exceeded} out of this call. *)
val fetch_blocks :
  ?admission:Buffer_pool.admission -> t -> b0:int -> b1:int -> Buffer_pool.decoded array

(** [prefetch_blocks t ~b0 ~b1] is {!fetch_blocks} for effect only:
    warm the buffer pool with the candidate blocks of an upcoming
    scan/range without materializing records. *)
val prefetch_blocks : t -> b0:int -> b1:int -> unit

(** [get t i] is record [i] (0-based, in compressed-value order);
    decodes at most the one block holding it. Raises [Invalid_argument]
    out of bounds. *)
val get : t -> int -> record

(** [range t ~lo ~hi] is the records with indices in [lo, hi) (upper
    bound exclusive), decoding only the blocks that interval touches;
    the rest are counted as pruned ({!Buffer_pool.note_skipped}).
    Bounds are clamped to the valid index range. Like {!scan}, decoded
    blocks are admitted at the pool's LRU tail. *)
val range : t -> lo:int -> hi:int -> record list

(** First index whose code is [>] the argument ([length t] if none). *)
val upper_bound : t -> string -> int

(** ContAccess with an equality criterion: candidate blocks are chosen
    by header min/max, only they are decoded, and matches are found by
    in-block binary search. Valid whenever the algorithm supports
    [`Eq]. *)
val lookup_eq : t -> string -> record list

(** ContAccess with an interval criterion on compressed codes
    (inclusive [lo], exclusive [hi]; [None] = unbounded). Valid only
    for order-preserving algorithms. Decodes only the blocks whose
    header range intersects the interval. *)
val lookup_range : t -> ?lo:string -> ?hi:string -> unit -> record list

(** Decompress one record's value with the container's model. *)
val decompress_record : t -> record -> string

(** Compress a query constant against this container's source model, so
    predicates can be evaluated in the compressed domain. *)
val compress_constant : t -> string -> string

(** Total bytes of the stored block payloads (the container's share of
    the repository's value area). *)
val compressed_bytes : t -> int

(** Publish per-container gauges ([container.<path>.encoded_bytes],
    [.plain_bytes], [.records], [.blocks]) when telemetry is enabled.
    Called automatically by {!build}, {!of_sorted_records} and
    {!recompress}. *)
val publish_metrics : t -> unit

(** Append the v2 wire image (block headers + verbatim payloads — a
    save/load/save cycle is byte-exact). The container flags byte
    carries bit 0 = [distinct_parents], bit 1 = [sorted_run], bit 2 =
    "per-block flags byte present" (bit 0 of which is [b_exact]), and
    bit 3 = "adaptive-sizing extension present": two varints
    [<block_size, compaction_epoch>] directly after the flags byte,
    emitted only when the block size differs from the built-in 16384 or
    the epoch is non-zero (pre-extension images and their re-saves stay
    byte-identical; old readers reject bit 3 rather than misparse).
    Images written before bits 1–2 existed load with [sorted_run] and
    every [b_exact] false. The model itself is serialized once per
    [model_id] by {!Repository}. *)
val serialize : Buffer.t -> t -> unit

(** Parse a v2 container image at [pos]; [models] maps [model_id] to
    the already-deserialized shared models. Returns the container and
    the first position past it. *)
val deserialize :
  models:(int, Compress.Codec.model) Hashtbl.t -> string -> int -> t * int

(** Parse a legacy v1 (record-at-a-time) container image, re-blocking
    its records with sizes estimated from the container average. *)
val deserialize_v1 :
  models:(int, Compress.Codec.model) Hashtbl.t -> string -> int -> t * int
