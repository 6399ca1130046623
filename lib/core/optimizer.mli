(** Strategy analysis ("EXPLAIN"): reports, without touching data, the
    evaluation strategy the executor will choose — summary accesses,
    compressed-domain pushdowns, join methods, decorrelations. *)

open Storage

(** How one predicate will be evaluated: its text, the containers it
    touches, and whether the comparison runs on compressed codes. *)
type predicate_plan = {
  predicate : string;
  containers : string list;
  compressed_domain : bool;
}

(** One strategy decision in the report, in evaluation order. *)
type decision =
  | Summary_path of { path : string; snodes : int }
  | Navigation of { path : string }
  | Pushdown of predicate_plan
  | Scan_filter of predicate_plan
  | Hash_join of { variable : string; left : string; right : string; on_codes : bool }
  | Block_join of {
      variable : string;
      left : string;
      right : string;
      blocks_probed : int;
      blocks_skipped : int;
      skip_fraction : float;
    }
      (** header-driven block merge join: bound intervals from the two
          sides' block headers were intersected statically;
          [blocks_skipped] blocks never need decoding *)
  | Sorted_probe of { variable : string; left : string; right : string; on_codes : bool }
  | Decorrelate of { variable : string; op : string; on_codes : bool }
  | Correlated_loop of { variable : string }

(** Predict the executor's strategy for a parsed query (no data access). *)
val explain : Repository.t -> Xquery.Ast.expr -> decision list

(** {!explain} on a query string, pretty-printed one decision per line. *)
val explain_string : Repository.t -> string -> string

(** Render the EXPLAIN ANALYZE report for an already-profiled plan
    (strategy decisions plus the annotated physical plan). Lets callers
    that obtained the profile elsewhere — e.g. the query-logged
    evaluation path — reuse the report format. *)
val render_profiled : Repository.t -> string -> Xquec_obs.Explain.node -> string
