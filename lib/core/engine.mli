(** Public facade of XQueC: load (compress) a document — optionally
    tuned to a query workload — and evaluate XQuery over the compressed
    repository. *)

(** A loaded repository plus, when a workload guided compression, the
    partitioning decision that produced it. *)
type t = {
  repo : Storage.Repository.t;
  partitioning : Partitioner.result option;
}

(** Compress [xml] into a queryable repository. With [workload] queries,
    the §3 greedy search chooses algorithms and shared source models
    first. *)
val load :
  ?name:string -> ?workload:string list -> ?loader_options:Loader.options -> string -> t

(** The underlying storage repository. *)
val repo : t -> Storage.Repository.t

(** Parse an XQuery string to its AST (raises
    [Xquery.Parser.Syntax_error] on malformed input). *)
val parse_query : string -> Xquery.Ast.expr

(** MD5 hex of the query text — the query log's [query_hash] and the
    {!Plan_cache} key, computed in one place so they cannot drift. *)
val query_hash : string -> string

(** Parse through the process-wide {!Plan_cache}: the (possibly
    cached) immutable AST plus how the lookup resolved
    ({!Plan_cache.Bypass} while the cache capacity is 0). Parse errors
    propagate and are never cached. *)
val compile : string -> Xquery.Ast.expr * Plan_cache.lookup

(** Parse and evaluate a query, returning result items (still in their
    compressed-domain representation where possible). *)
val query : t -> string -> Executor.item list

(** Evaluate with per-operator profiling: results plus the annotated
    physical plan tree (see {!Xquec_obs.Explain}). *)
val query_profiled : t -> string -> Executor.item list * Xquec_obs.Explain.node

(** Evaluate an already-parsed query. *)
val query_ast : t -> Xquery.Ast.expr -> Executor.item list

(** Evaluate and serialize (decompressing the result, as the paper's QET
    measurements do). *)
val query_serialized : t -> string -> string

(** Evaluate, serialize, and — when a query-log file is configured
    (see {!Xquec_obs.Query_log}) — append exactly one JSONL record
    accounting for the query's full cost: wall/CPU time, plan shape
    and per-operator cardinalities, buffer-pool / decode-pool counter
    deltas, bytes decoded vs. bytes pruned, and GC allocation deltas
    (schema in [docs/OBSERVABILITY.md]). Deltas are taken around
    evaluation {e and} serialization, so they reconcile with the
    [--stats] pool summary of a single-query run. Also returns the
    profiled plan.

    [plan] (from {!compile}) skips the parse; [text] still provides
    the record's hash and echo. [admission] is attached verbatim as
    the record's ["admission"] field — the serving layer's description
    of how the request was admitted (in-flight depth, plan-cache
    outcome, armed budgets). *)
val query_serialized_logged :
  ?admission:Xquec_obs.Json.t ->
  ?plan:Xquery.Ast.expr ->
  t ->
  string ->
  string * Xquec_obs.Explain.node

(** Original document bytes / compressed repository bytes. *)
val compression_factor : t -> float

(** Per-component byte accounting of the compressed repository. *)
val size_breakdown : t -> Storage.Repository.size_breakdown

(** Serialize the repository to the on-disk container format (the bytes
    written by [xquec compress -o]). *)
val save : t -> string

(** Inverse of {!save}; loads images of every format version, v1 to v4. *)
val restore : string -> t

(** Reconstruct the full document (the decompressor direction). *)
val to_document : t -> Xmlkit.Tree.document

(** {!to_document} serialized back to XML text. *)
val to_xml : ?indent:bool -> t -> string
