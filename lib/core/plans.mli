(** Hand-built physical plans in the spirit of the paper's Fig. 5 (its
    own measurements used hand-chosen plans). *)

open Storage

(** Fig. 5: XMark Q9's three-way join on compressed attributes, with
    Decompress at the very top; returns (person name, item name) rows. *)
val q9 : Repository.t -> (string * string) list

(** The same result by decompress-first nested loops — the comparison
    point for the late-decompression ablation. *)
val q9_naive : Repository.t -> (string * string) list
