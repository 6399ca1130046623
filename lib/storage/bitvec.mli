(** Succinct bitvector with two-level rank/select directories — the
    substrate of the balanced-parentheses structure tree (repository
    format v4). Only the raw bits are serialized, and those on-disk
    bytes are the packed bits alone. In memory the bits sit in a copy
    padded to whole 64-bit words, and the directories (cumulative
    popcounts per 512-bit superblock, per-64-bit-word counts) are
    rebuilt at load time, word by word: [rank1] is two directory
    lookups plus one masked popcount of a 64-bit word, and [select]
    ends in a 256x8 select-in-byte table. *)

(** An immutable bitvector with rank/select support. *)
type t

(** Length in bits. *)
val length : t -> int

(** Number of set bits. *)
val ones : t -> int

(** Number of clear bits. *)
val zeros : t -> int

(** [get t i] is bit [i] (0-based). Raises [Invalid_argument] out of
    range. *)
val get : t -> int -> bool

(** [of_bytes ~len data] builds a vector from [len] bits packed
    LSB-first, 8 per byte ([(len+7)/8] bytes). The bits are copied into
    a word-padded buffer (bits past [len] read as zero); [data] is not
    retained. *)
val of_bytes : len:int -> Bytes.t -> t

(** [init len f] builds a bitvector with bit [i] set iff [f i]. *)
val init : int -> (int -> bool) -> t

(** [rank1 t i]: number of set bits in positions [0, i). Defined for
    [0 <= i <= length t]. *)
val rank1 : t -> int -> int

(** [rank0 t i]: number of clear bits in positions [0, i). *)
val rank0 : t -> int -> int

(** [select1 t k]: position of the [k]-th set bit, 1-based. Raises
    [Invalid_argument] unless [1 <= k <= ones t]. *)
val select1 : t -> int -> int

(** [select0 t k]: position of the [k]-th clear bit, 1-based. *)
val select0 : t -> int -> int

(** The in-memory backing store: the packed bits, LSB-first, followed
    by zero padding up to a whole number of 64-bit words (so its length
    is at least [(length t + 7) / 8]). For table-driven scans such as
    {!Bp_tree}'s excess search; callers must not mutate it. *)
val raw_bytes : t -> Bytes.t

(** Compact on-storage footprint of the rank directory (4 B per
    superblock + 2 B per block) — charged to the occupancy breakdown
    even though the in-memory arrays are rebuilt wider at load. *)
val overhead_bytes : t -> int

(** Append the varint bit length followed by the packed bytes. *)
val serialize : Buffer.t -> t -> unit

(** [deserialize s pos] inverts {!serialize}, returning the vector and
    the position past it. Raises [Failure] on corrupt input: a
    truncated varint or bit payload, or a negative or oversized
    length. *)
val deserialize : string -> int -> t * int

(** Wavelet tree over an integer-code sequence (the structure tree's
    tag array), stored as [width] level bitvectors of [n] bits in the
    pointerless levelwise layout. A per-level node directory, rebuilt
    at load and never serialized, records for each non-empty wavelet
    node its interval start, the level's rank at that start, its zero
    count and its child nodes; it is bounded by the number of distinct
    code prefixes. With it [access] and [rank] cost one bitvector rank
    per level and [select] one select per level. *)
module Wavelet : sig
  (** An immutable code sequence with rank/select by code. *)
  type t

  (** Number of codes in the sequence. *)
  val length : t -> int

  (** Bits per code. *)
  val width : t -> int

  (** Smallest width (>= 1) that represents [max_code]. *)
  val width_for : int -> int

  (** [build ~width codes] encodes the sequence; every code must fit in
      [width] bits. *)
  val build : width:int -> int array -> t

  (** [access t i]: the code at position [i]. *)
  val access : t -> int -> int

  (** [rank t ~code i]: occurrences of [code] in positions [0, i). *)
  val rank : t -> code:int -> int -> int

  (** [select t ~code k]: position of the [k]-th occurrence of [code]
      (1-based), or [None] if there are fewer than [k]. *)
  val select : t -> code:int -> int -> int option

  (** Raw bit payload in bytes ([n * width / 8] rounded up per level). *)
  val data_bytes : t -> int

  (** Compact rank-directory footprint across levels. *)
  val overhead_bytes : t -> int

  (** Append varint [length], varint [width], then each level's packed
      bits (the rank and node directories are rebuilt at load). *)
  val serialize : Buffer.t -> t -> unit

  (** [deserialize s pos] inverts {!serialize}, returning the tree and
      the position past it. Raises [Failure] on corrupt input
      (truncated, negative or oversized lengths, bad width). *)
  val deserialize : string -> int -> t * int
end
