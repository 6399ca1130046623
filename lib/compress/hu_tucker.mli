(** Hu-Tucker optimal alphabetic (order-preserving) binary codes
    (Hu & Tucker 1971) — the order-preserving baseline ALM was compared
    against in the paper (§2.1). *)

(** The source model: an alphabetic canonical code. *)
type model

(** Raised when decompressing bytes no model run produced. *)
exception Corrupt of string

(** 257: the 256 byte values plus the end-of-string symbol. *)
val symbol_count : int

(** Phase 1 of the algorithm: the combination procedure; returns the
    depth of each leaf in the optimal alphabetic tree. *)
val combine : int array -> int array

(** Build a model from per-symbol code lengths ({!symbol_count}
    entries). *)
val of_lengths : int array -> model

(** Model from the byte frequencies of the training values. *)
val train : string list -> model

(** Encode a plaintext value. *)
val compress : model -> string -> string

(** Invert {!compress}. Raises {!Corrupt} on invalid input. *)
val decompress : model -> string -> string

(** Order-preserving: compare compressed values directly. *)
val compare_compressed : string -> string -> int

(** Serialize the code lengths for the repository. *)
val serialize_model : model -> string

(** Invert {!serialize_model}. Raises {!Corrupt} on invalid input. *)
val deserialize_model : string -> model

(** Serialized size in bytes (counted into the repository total). *)
val model_size : model -> int
