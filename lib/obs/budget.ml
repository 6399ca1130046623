(* Per-query resource budgets, armed per domain.

   The serving layer gives each query a wall-clock and/or decoded-bytes
   allowance before evaluating it ([arm]); the storage layer charges
   decoded bytes as blocks leave the codecs and polls [check] at every
   block access. When an allowance is exhausted the poll raises
   {!Exceeded} on the evaluating domain, unwinding the query cleanly —
   the engine holds no locks across block fetches, so the exception is
   an ordinary early return and the server maps it to a 408-style
   response.

   Attribution under parallel decode: the budget handle is captured on
   the evaluating domain (Domain.DLS) when a batch is submitted and the
   charge closure carries it onto whichever Domain_pool worker performs
   the decode — the charge lands on the query that asked for the block,
   not on the domain that happened to decode it. Charges are atomic
   adds; checks are reads plus a compare. A process with no armed
   budget anywhere (every CLI path, the bench) pays one shared atomic
   load per poll — the armed count below short-circuits [current]
   before the DLS lookup, keeping the block-fetch hot path at its
   pre-budget cost when serving budgets are off.

   Checks are cooperative and block-grained: a query trips the budget at
   the next block access after crossing it, so the overshoot is bounded
   by one decode batch. Pure in-memory phases (serializing an already
   decoded result) run to completion. *)

type trip = { t_kind : string; t_limit : float; t_observed : float }

exception Exceeded of trip

type t = {
  b_started_us : float;
  b_wall_ms : float option;  (* wall-clock allowance, milliseconds *)
  b_decode_bytes : int option;  (* decoded-bytes allowance *)
  b_charged : int Atomic.t;  (* decoded bytes charged so far *)
}

type handle = t option

let key : handle Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Number of domains with an armed budget, process-wide: the fast-path
   gate for [current]. Maintained by [arm]/[disarm] pairing. *)
let armed_count : int Atomic.t = Atomic.make 0

let now_us () = Unix.gettimeofday () *. 1e6

let arm ?wall_ms ?decode_bytes () : unit =
  let wall_ms = match wall_ms with Some w when w > 0.0 -> Some w | _ -> None in
  let decode_bytes =
    match decode_bytes with Some b when b > 0 -> Some b | _ -> None
  in
  let h =
    if wall_ms = None && decode_bytes = None then None
    else
      Some
        {
          b_started_us = now_us ();
          b_wall_ms = wall_ms;
          b_decode_bytes = decode_bytes;
          b_charged = Atomic.make 0;
        }
  in
  (match Domain.DLS.get key with Some _ -> Atomic.decr armed_count | None -> ());
  Domain.DLS.set key h;
  match h with Some _ -> Atomic.incr armed_count | None -> ()

let disarm () : unit =
  (match Domain.DLS.get key with Some _ -> Atomic.decr armed_count | None -> ());
  Domain.DLS.set key None

let current () : handle =
  if Atomic.get armed_count = 0 then None else Domain.DLS.get key

let charge (h : handle) (bytes : int) : unit =
  match h with
  | None -> ()
  | Some b -> if bytes > 0 then ignore (Atomic.fetch_and_add b.b_charged bytes)

let charged (h : handle) : int =
  match h with None -> 0 | Some b -> Atomic.get b.b_charged

let check (h : handle) : unit =
  match h with
  | None -> ()
  | Some b ->
    (match b.b_decode_bytes with
    | Some limit ->
      let used = Atomic.get b.b_charged in
      if used > limit then
        raise
          (Exceeded
             {
               t_kind = "decode_bytes";
               t_limit = float_of_int limit;
               t_observed = float_of_int used;
             })
    | None -> ());
    (match b.b_wall_ms with
    | Some limit ->
      let elapsed = (now_us () -. b.b_started_us) /. 1000.0 in
      if elapsed > limit then
        raise (Exceeded { t_kind = "wall_ms"; t_limit = limit; t_observed = elapsed })
    | None -> ())
