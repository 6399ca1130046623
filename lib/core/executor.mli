(** XQueC query executor (§4): evaluates the XQuery subset directly over
    the compressed repository.

    Paths resolve against the structure summary; value predicates push
    into containers and run on compressed codes whenever the codec
    supports the comparison class; uncorrelated FOR/LET sources evaluate
    once; value joins hash/probe compressed codes when both sides share
    a source model; single-conjunct-correlated nested FLWORs (the XMark
    Q8/Q9/Q10 pattern) decorrelate into build-once join tables; values
    decompress only on output. *)

open Storage

(** A result item. Values stay compressed ([Cval]) until serialization. *)
type item =
  | Node of int  (** structure-tree node id *)
  | Cval of { cont : Container.t; code : string }  (** compressed value *)
  | Att of string * item  (** attribute node: name + value *)
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of Xmlkit.Tree.t  (** constructed element *)

(** A sequence with summary provenance; the [All_*] forms are symbolic
    "every instance under these summary nodes" and avoid materializing
    whole paths (Fig. 4). *)
type seqv =
  | Mat of item list
  | All_nodes of Summary.node list
  | All_values of Summary.node list

(** What a variable is bound to: its sequence plus the summary nodes its
    items are instances of (provenance for later path steps). *)
type binding = { seq : seqv; snodes : Summary.node list }

(** Evaluation context threaded through every operator. *)
type ctx = {
  repo : Repository.t;
  prof : Xquec_obs.Explain.t option;  (** attached EXPLAIN profile, if any *)
  prof_ops : bool;  (** open operator nodes in the profile *)
}

(** A plain evaluation context (no profile attached). *)
val mk_ctx : Repository.t -> ctx

(** Variable environment: name (with leading ["$"]) to binding. *)
type env = (string * binding) list

(** Raised on semantic errors (unknown document, unbound variable, type
    mismatch in a comparison, …). *)
exception Eval_error of string

(** {2 Entry points} *)

(** Evaluate a parsed query against a repository. *)
val run : Repository.t -> Xquery.Ast.expr -> item list

(** Parse then {!run}. *)
val run_string : Repository.t -> string -> item list

(** Evaluate with per-operator profiling: results plus the root of the
    annotated plan tree (inclusive wall time, output cardinalities, and
    compressed-domain vs. decompress-then-compare predicate counts).
    Independent of the global {!Xquec_obs.set_enabled} switch. *)
val run_profiled : Repository.t -> Xquery.Ast.expr -> item list * Xquec_obs.Explain.node

(** Serialize results, decompressing — the Decompress + XMLSerialize
    tail of every plan (§4, Fig. 5). *)
val serialize : Repository.t -> item list -> string

(** {2 Building blocks used by the physical algebra, plans and the
    optimizer} *)

(** Force a binding to a concrete item list, expanding the symbolic
    [All_*] forms by walking the structure tree. *)
val materialize : ctx -> binding -> item list

(** Cardinality of a binding; counts [All_*] forms from the summary's
    per-snode instance counts without materializing. *)
val count : ctx -> binding -> int

(** Atomized string value of an item (decompresses a [Cval]). *)
val atom_string : ctx -> item -> string

(** Atomized numeric value, or [None] if the item is not a number. *)
val atom_number : ctx -> item -> float option

(** Evaluate an expression under an environment — the executor's core
    recursion, exposed for the physical algebra and EXPLAIN. *)
val eval : ctx -> env -> Xquery.Ast.expr -> binding

(** Reconstruct the XML subtree rooted at a node id. *)
val reconstruct : ctx -> int -> Xmlkit.Tree.t

(** One summary step relative to a set of summary nodes. *)
val advance_snodes : ctx -> Summary.node list -> Xquery.Ast.step -> Summary.node list

(** {2 Predicate pushdown analysis} *)

(** A constant comparison operand. *)
type const_operand = Cstr of string | Cnum of float

(** Recognize a literal (string or number) as a constant operand. *)
val const_of_expr : Xquery.Ast.expr -> const_operand option

(** Predicate shapes the executor can push into container scans: a value
    comparison against a constant, a textual predicate, or a bare
    existence test — each with the context-relative path to the value. *)
type pushable =
  | P_value of Xquery.Ast.cmp_op * Xquery.Ast.step list * const_operand
  | P_textual of [ `Contains | `Starts_with ] * Xquery.Ast.step list * string
  | P_exists of Xquery.Ast.step list

(** Match a [where]-clause conjunct against the {!pushable} shapes. *)
val recognize_pushable : Xquery.Ast.expr -> pushable option

(** Resolve a context-relative value path to (container, hops to the
    candidate element) pairs, or [None] when unresolvable (or when the
    container records would not be semantically exact for the predicate:
    bare-element comparisons and — under [concat_semantics], used for
    contains/starts-with — multi-text instances). *)
val resolve_value_path :
  ?concat_semantics:bool ->
  ctx ->
  Summary.node list ->
  Xquery.Ast.step list ->
  (Container.t * int) list option

(** {2 Join key typing} *)

(** How both join sides will be keyed. *)
type key_mode =
  | Mode_code of int * Container.t
      (** both sides share this source model: probe compressed codes *)
  | Mode_atom

(** Choose the key mode for a join of two value expressions: compressed
    codes when both sides resolve to containers sharing one source
    model, else atomized values. *)
val join_key_mode : ctx -> env -> Xquery.Ast.expr -> Xquery.Ast.expr -> key_mode

(** {2 Planning decisions}

    Pure functions of the query, the summary and container metadata —
    no record is read. The executor plans with them and the optimizer's
    EXPLAIN reports their answers. *)

(** Static summary-node provenance of an expression: the summary nodes
    its items would be instances of, given the variables' provenance in
    [env] ([[]] when unknown). *)
val static_snodes : ctx -> env -> Xquery.Ast.expr -> Summary.node list

(** [bind_static ctx env v e] binds [v] to [e]'s {!static_snodes} (with
    an empty sequence) in front of [env]. *)
val bind_static : ctx -> env -> string -> Xquery.Ast.expr -> env

(** The join conjunct a FOR binding [var] consumes: the first of the
    conjuncts comparing [var] with the [bound] variables by anything but
    [!=], returned with its (operator, bound side, [var] side) reading.
    [base_vars] are the FLWOR's enclosing variables. *)
val find_join :
  bound:Analysis.Sset.t ->
  base_vars:Analysis.Sset.t ->
  var:string ->
  Xquery.Ast.expr list ->
  (Xquery.Ast.expr * (Xquery.Ast.cmp_op * Xquery.Ast.expr * Xquery.Ast.expr)) option

(** A correlated LET-bound nested FLWOR rewritten as a join (the XMark
    Q8/Q9 pattern): the inner tuples of [dc_clauses] are built once and
    probed per outer tuple on [dc_outer dc_op dc_inner], keyed by
    [dc_mode]; each match contributes its [dc_return]. *)
type decorrelation = {
  dc_op : Xquery.Ast.cmp_op;
  dc_outer : Xquery.Ast.expr;  (** key over the outer tuple *)
  dc_inner : Xquery.Ast.expr;  (** key over an inner tuple *)
  dc_clauses : Xquery.Ast.clause list;
      (** the inner clauses, correlated conjunct removed *)
  dc_return : Xquery.Ast.expr;
  dc_mode : key_mode;
}

(** Decorrelation applicability for a LET expression correlated with
    the outer [tuple_vars]: a FLWOR whose clauses (other than its
    where-conjuncts) and return avoid [tuple_vars], with exactly one
    conjunct mentioning them, and that one a non-[!=] join between outer
    and inner variables. [prov] carries the provenance of the outer
    variables (for typing the keys); [base_vars] are the enclosing
    FLWOR's own enclosing variables. [None] means a correlated
    re-evaluation per tuple. *)
val decorrelation :
  ctx ->
  prov:env ->
  base_vars:Analysis.Sset.t ->
  tuple_vars:Analysis.Sset.t ->
  Xquery.Ast.expr ->
  decorrelation option

(** {2 Block-interval merge join}

    The compressed-domain join fast path: when both key sides of an
    equality join resolve to sorted containers under one source model,
    the executor intersects the two sides' block bound intervals from
    headers alone, decodes only the overlapping blocks, and merges equal
    codes record-wise — values are never decompressed and
    non-overlapping blocks are never fetched. *)

(** One (left container, right container) pairing of a block join, with
    the hops from each side's records to its variable and the pair's
    header-overlap estimate. *)
type block_pairing = {
  bp_lc : Container.t;
  bp_lhops : int;
  bp_rc : Container.t;
  bp_rhops : int;
  bp_est : Cost_model.block_join_estimate;
}

(** The block-vs-hash choice for the equality join binding the FOR
    variable [var]: [Some pairings] when the block merge join is enabled
    ({!set_block_join}), statically applicable — both key expressions are
    single-variable value paths (the right side rooted at [var])
    resolving to containers that share one [`Eq]-capable source model
    and are verified [sorted_run]s — and favored by
    {!Cost_model.prefer_block_join} for [tuples] outer tuples (default
    [max_int]: unknown, as in EXPLAIN). *)
val block_join_pairings :
  ?tuples:int ->
  ctx ->
  env ->
  var:string ->
  Xquery.Ast.expr ->
  Xquery.Ast.expr ->
  block_pairing list option

(** Process-wide block-join counters, maintained as atomics (so they
    accumulate with telemetry off, like the buffer-pool stats):
    executions, blocks decoded, blocks skipped from headers alone, and
    the stored payload bytes those skipped blocks would have read. *)
type join_stats = {
  j_block_joins : int;
  j_blocks_probed : int;
  j_blocks_skipped : int;
  j_skipped_bytes : int;
}

(** Snapshot the cumulative block-join counters. *)
val join_stats : unit -> join_stats

(** Zero the block-join counters (benchmark / test isolation). *)
val reset_join_stats : unit -> unit

(** Enable or disable the block merge join (enabled by default); when
    off, equality joins always take the hash-join path — the
    differential tests and the bench's skip-ratio experiment toggle
    this. *)
val set_block_join : bool -> unit

(** One container-resolved predicate observed during evaluation: a
    pushed-down value / textual filter, a tuple-at-a-time [where]
    comparison reading a container value, an existence test, or a
    compressed-domain join side. [o_kind] is one of ["eq"], ["range"],
    ["wild"], ["exists"], ["join"] — the vocabulary
    [Xquec_obs.Profile] fingerprints over, aligned with the
    {!Workload} predicate classes. [o_candidates] is the records (or
    path instances, or tuples) the predicate considered and
    [o_matches] how many matched, so [o_matches / o_candidates] is its
    observed selectivity. *)
type pred_obs = {
  o_container : string;
  o_kind : string;
  o_candidates : int;
  o_matches : int;
}

(** Observations of the most recently evaluated query {e on the
    calling domain}, merged by (container, kind) — per-tuple
    comparison notes sum into one entry — in first-observation order.
    Reset by {!run} / {!run_profiled}. The accumulator is
    domain-local ([Domain.DLS]), so concurrent serve workers each see
    exactly their own query's observations; read it on the domain that
    evaluated, before it evaluates anything else. *)
val predicate_observations : unit -> pred_obs list
