(** Query workload analysis (§3): extracts the value-comparison
    predicates of a set of queries, resolving each side to the
    containers it touches — the input of the cost model and the greedy
    partitioning search. *)

open Storage

(** Predicate class: equality, inequality/range, or wildcard (the paper's
    three classes — each algorithm supports a subset in the compressed
    domain). *)
type pred_class = Cls_eq | Cls_ineq | Cls_wild

(** A predicate between container sets; [right = []] means a constant. *)
type predicate = { cls : pred_class; left : int list; right : int list }

(** An analyzed workload: its predicates plus the repository's container
    count (the dimension of the {!matrices}). *)
type t = { predicates : predicate list; container_count : int }

(** Extract the predicates of a set of parsed queries. *)
val analyze : Repository.t -> Xquery.Ast.expr list -> t

(** {!analyze} after parsing each query string. *)
val of_query_strings : Repository.t -> string list -> t

(** The E/I/D comparison matrices of §3.2 ((|C|+1)², symmetric; the last
    row/column counts comparisons with constants). *)
val matrices : t -> int array array * int array array * int array array

(** Container ids mentioned by at least one predicate, ascending. *)
val queried_containers : t -> int list

(** Render a predicate as e.g. ["eq {3 5} ~ const"]. *)
val pp_predicate : Format.formatter -> predicate -> unit

(** Declared-workload fingerprint over (container path, predicate kind)
    events — [Cls_eq]/[Cls_ineq]/[Cls_wild] mapped to ["eq"]/["range"]/
    ["wild"] — directly comparable with an observed query-log
    fingerprint via {!Xquec_obs.Profile.drift}. *)
val fingerprint : Repository.t -> t -> Xquec_obs.Profile.fingerprint
