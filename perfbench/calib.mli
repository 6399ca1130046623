(** Host-speed reference. The benchmark shares its host with other
    work, and the host's speed drifts by up to 2x over seconds. Every
    timed phase therefore interleaves short slices of a fixed workload
    that lives in this file — no code of the program under test runs
    in it, so no change to the program can move it — and each time is
    rescaled by the slices nearest to it, to a host on which one slice
    takes {!nominal_ms}. *)

(** Slice time (ms) of the reference host. *)
val nominal_ms : float

(** Run [n] slices (about 2 ms each) and record their times. *)
val slices : int -> unit

(** [during f] runs [f] with one slice every 100 ms, taken from a
    wall-clock timer signal, for timed calls too long to rescale by the
    slices around them. The slices' time counts in {!spent}. *)
val during : (unit -> 'a) -> 'a

(** Number of slices recorded. *)
val count : unit -> int

(** Total seconds spent in slices so far, so that a timed window that
    contains slices can leave them out. *)
val spent : unit -> float

(** [reference ~t0 ~t1] is the median time (ms) of the slices that
    started within [t0, t1], widened to the three slices nearest to
    the window when fewer fall inside; {!nominal_ms} when none has
    run. *)
val reference : t0:float -> t1:float -> float

(** [rescale ~t0 ~t1 x] is a time [x] measured over [t0, t1], rescaled
    to the reference host ({!Stats.at_reference}). *)
val rescale : t0:float -> t1:float -> float -> float
