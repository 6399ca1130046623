(** Static analysis over XQuery expressions: free variables, conjunct
    splitting, join-predicate detection — the basis of the executor's
    join and decorrelation planning. *)

(** Sets of variable names (["$p"] and friends). *)
module Sset : Set.S with type elt = string

(** Variables an expression reads but does not bind itself. *)
val free_vars : Xquery.Ast.expr -> Sset.t

(** Split a [where] clause on top-level [and]s into its conjuncts
    (a non-conjunction is returned as a singleton). *)
val conjuncts : Xquery.Ast.expr -> Xquery.Ast.expr list

(** The conjuncts of all of a FLWOR's [where] clauses, in order. *)
val where_conjuncts : Xquery.Ast.clause list -> Xquery.Ast.expr list

(** Rebuild a conjunction from {!conjuncts} output; [None] for the empty
    list (no residual predicate). *)
val conjoin : Xquery.Ast.expr list -> Xquery.Ast.expr option

(** A comparison usable as a join between [left_vars] and [right_vars]
    (either may also mention [outer] variables); the result is oriented
    left-side-first, flipping the operator if needed. *)
val join_conjunct :
  left_vars:Sset.t ->
  right_vars:Sset.t ->
  outer:Sset.t ->
  Xquery.Ast.expr ->
  (Xquery.Ast.cmp_op * Xquery.Ast.expr * Xquery.Ast.expr) option

(** Does the expression mention any variable of the set? (Used to decide
    which side of a join a conjunct belongs to.) *)
val mentions : Sset.t -> Xquery.Ast.expr -> bool
