(** Arithmetic the benchmark reports with: order statistics, ratios
    that carry their base, and the seeded Zipf key stream. Kept apart
    from [xqbench.ml] so that its tests need no repository. *)

(** [sorted xs] is a sorted copy of [xs]. *)
val sorted : float array -> float array

(** Median of a sorted, non-empty array (mean of the two middle values
    when the length is even). Raises [Invalid_argument] when empty. *)
val median : float array -> float

(** The tail percentile of a sorted array: the nominal 99th percentile,
    lowered until at least [beyond] (default 10) samples lie above it.
    Returns [(value, percentile, samples_beyond)], or [None] when the
    array has no more than [beyond] samples. *)
val tail : ?beyond:int -> float array -> (float * float * int) option

(** A ratio together with its base: [value = num /. den], and [0.] when
    [den = 0.]. *)
type ratio = { num : float; den : float; value : float }

(** [ratio ~num ~den] builds a {!ratio}. *)
val ratio : num:float -> den:float -> ratio

(** Buffer-pool hit ratio: [hits / (hits + misses + latch_waits)] — every
    fetch is exactly one of the three. *)
val hit_ratio : hits:int -> misses:int -> latch_waits:int -> ratio

(** Share of header-pruned payload bytes among all payload bytes a
    query's blocks held: [skipped / (skipped + decoded)]. *)
val skipped_ratio : skipped:int -> decoded:int -> ratio

(** A per-operation rate: [count / ops]. *)
val per_op : int -> ops:int -> ratio

(** [at_reference ~nominal ~reference t] rescales a time [t] measured
    while the host ran the reference slice in [reference] ms to a host
    on which it takes [nominal] ms: [t * nominal / reference]. A rate
    rescales by the inverse, [at_reference ~nominal:reference
    ~reference:nominal]. *)
val at_reference : nominal:float -> reference:float -> float -> float

(** Seeded Zipf sampler over ranks [0, n). *)
type zipf

(** [zipf ~n ~s] has [P(rank k) ∝ 1 / (k + 1) ** s]. Raises
    [Invalid_argument] when [n < 1]. *)
val zipf : n:int -> s:float -> zipf

(** Draw one rank. *)
val draw : zipf -> Random.State.t -> int

(** [key_stream ~seed ~n ~s ~len] draws [len] keys in [0, n): Zipf ranks
    mapped through a seeded permutation, so the hot keys are spread over
    the id space rather than being the smallest ids. Equal arguments
    give equal streams. *)
val key_stream : seed:int -> n:int -> s:float -> len:int -> int array
