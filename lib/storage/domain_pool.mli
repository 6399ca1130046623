(** Fixed pool of OCaml 5 domains used to decode container blocks in
    parallel (the unit of parallelism the block-structured containers
    were designed for).

    One process-wide pool: tasks submitted by {!run} land in a shared
    FIFO queue drained by [size ()] long-lived worker domains {e and} by
    the submitting domain itself, which helps until the queue is empty
    and then blocks on the batch's countdown latch. A pool of size [0]
    (the default when the host reports a single core) executes every
    batch on the calling domain in submission order — byte-identical to
    the engine's historical sequential behavior.

    The initial size comes from [$XQUEC_DECODE_DOMAINS] when that is set
    to a non-negative integer, and otherwise defaults to one worker per
    spare core, [max 0 (Domain.recommended_domain_count () - 1)]. The CLI's [--decode-domains] flag overrides it via
    {!set_size}. Worker domains are spawned lazily on the first parallel
    batch and joined from an [at_exit] hook, so a process that never
    decodes in parallel never spawns a domain.

    Thread safety: every function below may be called from any domain.
    See [docs/CONCURRENCY.md] for the full model. *)

(** A unit of work. Tasks must not themselves call {!run} (no nested
    batches from inside a task); they may block on {!Buffer_pool}
    latches. *)
type task = unit -> unit

(** Number of worker domains a parallel batch will use ([0] =
    sequential fallback). *)
val size : unit -> int

(** Resize the pool. [set_size 0] restores sequential semantics. The
    current workers are joined immediately (pending tasks finish first);
    new workers are spawned lazily at the next parallel batch. Clamped
    at 0. *)
val set_size : int -> unit

(** [run tasks] executes every task and returns when all have finished.
    With [size () = 0] — or a single task — they run in order on the
    calling domain; otherwise they are queued for the workers and the
    caller helps drain the queue. If any task raises, one such exception
    is re-raised after the whole batch has completed (the others are
    dropped). *)
val run : task array -> unit

(** [submit task] enqueues one fire-and-forget task for the workers and
    returns immediately — nothing ever waits for it, so an exception it
    raises is swallowed (fallible tasks should catch their own). Returns
    [false] without running anything when the pool is sequential
    ([size () = 0]); the caller then chooses whether to run the task
    inline. Used by the sequential-scan prefetcher and the background
    compactor. *)
val submit : task -> bool

(** Cumulative pool counters (see {!snapshot}): configured size, batches
    and tasks submitted, tasks that ran on the submitting domain (the
    sequential fallback plus queue "help"), total wall-clock time spent
    inside {!run}, and the high-water shared-queue depth observed just
    after a batch was enqueued (0 until a parallel batch runs). *)
type stats = {
  p_domains : int;
  p_batches : int;
  p_tasks : int;
  p_inline : int;
  p_wall_ms : float;
  p_max_queue_depth : int;
  p_async : int;  (** fire-and-forget tasks accepted by {!submit} *)
}

(** Current counter values (atomic reads; callable from any domain). *)
val snapshot : unit -> stats

(** Zero the cumulative counters (the pool itself is untouched). *)
val reset_stats : unit -> unit
