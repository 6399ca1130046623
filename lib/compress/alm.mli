(** ALM (Antoshenkov-Lomet-Murray) dictionary-based order-preserving
    string compression — the paper's key ingredient (§2.1, Fig. 2).

    The string space is partitioned into disjoint lexicographic
    intervals, each associated with a dictionary token (a prefix of every
    string in the interval) and a fixed-width code assigned in interval
    order. Byte comparison of compressed values coincides with plaintext
    comparison, so equality AND inequality predicates run in the
    compressed domain. A token that prefixes longer tokens receives
    several codes, one per gap between the longer tokens' regions —
    exactly the paper's Fig. 2. *)

(** The source model: an interval dictionary with code assignments. *)
type model

(** Raised when decompressing bytes no model run produced. *)
exception Corrupt of string

(** Build a model from an explicit token set (single bytes are always
    included, guaranteeing total coverage). *)
val of_tokens : string list -> model

(** Train on container values; the dictionary budget adapts to the
    container size so the source model never dwarfs the data. With
    telemetry on, adds the bytes the token miner sampled to the
    [codec.alm.sampled_bytes] counter and the distinct candidates it
    counted to [codec.alm.candidates]. *)
val train : ?max_tokens:int -> ?sample_bytes:int -> string list -> model

(** Encode a plaintext value as a code-sequence byte string. *)
val compress : model -> string -> string

(** Invert {!compress}. Raises {!Corrupt} on invalid input. *)
val decompress : model -> string -> string

(** Order-preserving: compare compressed values directly. *)
val compare_compressed : string -> string -> int

(** Compressed equality (plain byte equality, since the code is
    injective). *)
val equal_compressed : string -> string -> bool

(** Compressed bounds for a prefix wildcard [p*]: matching values are
    exactly those in [fst, snd) of the result (an extension beyond the
    paper's wild=false classification). *)
val prefix_range : model -> string -> string * string option

(** The mined (multi-byte) dictionary tokens; the model is a pure
    function of this list. *)
val model_tokens : model -> string list

(** Serialize the model (its token list) for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises [Failure] on a truncated body,
    like the repository's own framing errors. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total). *)
val model_size : model -> int
