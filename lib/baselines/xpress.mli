(** XPRESS-like compressor (Min, Park & Chung, SIGMOD'03): reverse
    arithmetic encoding maps label paths to nested sub-intervals of
    [0,1) (a path query is one interval test per element), with
    type-inferred value codecs; homomorphic, queried by a top-down
    scan. *)

type t

val compress : string -> t

val compressed_size : t -> int

val compression_factor : t -> float

type event =
  | Start of string * float  (** tag, quantized path-interval minimum *)
  | End of string
  | Value of string * string  (** name, compressed code *)

val scan : t -> f:(event -> unit) -> unit

(** Path query with an optional numeric range predicate on the matched
    element's value — XPRESS's headline capability. *)
val query_path :
  t -> ?range:float option * float option -> string list -> string list
