(** The benchmark's own span recorder. Spans are taken around the
    benchmark's calls into each layer (the program is not
    instrumented); they stay in memory and are written once, when the
    run ends. While disabled every function is a plain call. *)

(** Whether spans are being recorded. *)
val enabled : unit -> bool

(** Turn recording on or off (between operations only). *)
val set_enabled : bool -> unit

(** [op name f] runs one operation under a fresh root span and returns
    its result; nested {!span}s become its children. [counters], called
    before and after [f], gives counter readings whose differences are
    attached to the root span, and [label] (say, a query id) is kept
    with it. *)
val op :
  ?counters:(unit -> (string * int) list) -> ?label:string -> string -> (unit -> 'a) -> 'a

(** [span name f] runs [f] as a child of the innermost open span. *)
val span : string -> (unit -> 'a) -> 'a

(** Inclusive duration (ms) of the span closed most recently. *)
val last_ms : unit -> float

(** Number of root spans recorded. *)
val ops : unit -> int

(** Summed counter differences over all recorded operations. *)
val counter : string -> int

(** Per span name: (count, total inclusive ms, total self ms). Self time
    is a span's duration minus the time its direct children cover. *)
val summary : unit -> (string * (int * float * float)) list

(** Write every span as Chrome trace JSON ([traceEvents], one complete
    event per span with its id, parent, operation id, label and counter
    differences in [args]),
    followed by [extra] as additional top-level fields. *)
val export : path:string -> extra:(string * string) list -> unit
