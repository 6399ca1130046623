(* Streaming workload watchdog. See watch.mli.

   A ring of N fixed-duration window buckets, each holding a
   Profile.agg; the executor fan-in (Engine.query_serialized_logged)
   calls [observe] with exactly the per-query observations the JSONL
   query log records, so the rolling fingerprint and an offline
   `xquec profile` over the same stream agree to the last bit — both
   are Profile.agg_fingerprint over the same additions.

   Concurrency: one mutex guards the ring and the derived state.
   [observe] holds it for a few hashtable bumps; [tick] holds it while
   merging at most N small aggs. Both are uncontended next to query
   evaluation, and the disabled path is a single atomic load. It is a
   leaf lock: nothing is called while holding it except Profile
   aggregation (pure) — the heat join and metrics publication in
   [tick] happen after release. *)

type status = {
  w_enabled : bool;
  w_window_s : float;
  w_windows : int;
  w_ticks : int;
  w_last_tick : float option;
  w_records : int;
  w_drift : float option;
  w_drift_ewma : float option;
}

type bucket = { mutable b_epoch : int; mutable b_agg : Profile.agg }

let lock = Mutex.create ()
let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* configuration; [configure] replaces the ring *)
let window_s = ref 10.0
let nwindows = ref 6
let ewma_alpha = ref 0.3

let fresh_ring n = Array.init n (fun _ -> { b_epoch = -1; b_agg = Profile.agg_create () })

let ring = ref (fresh_ring !nwindows)
let baseline : Profile.fingerprint option ref = ref None
let ewma : float option ref = ref None
let ticks = ref 0
let last_tick : float option ref = ref None
let last_drift : float option ref = ref None

let configure ?window_seconds ?windows ?alpha () =
  with_lock @@ fun () ->
  (match window_seconds with Some s when s > 0.0 -> window_s := s | _ -> ());
  (match windows with Some n when n > 0 -> nwindows := n | _ -> ());
  (match alpha with Some a when a > 0.0 && a <= 1.0 -> ewma_alpha := a | _ -> ());
  ring := fresh_ring !nwindows

let set_baseline fp = with_lock @@ fun () -> baseline := fp

let reset () =
  with_lock @@ fun () ->
  ring := fresh_ring !nwindows;
  ewma := None;
  ticks := 0;
  last_tick := None;
  last_drift := None

let epoch_of now = int_of_float (now /. !window_s)

(* the bucket for [epoch], recycling a slot whose window has passed *)
let bucket_for epoch =
  let b = !ring.(epoch mod !nwindows) in
  if b.b_epoch <> epoch then begin
    b.b_epoch <- epoch;
    b.b_agg <- Profile.agg_create ()
  end;
  b.b_agg

let observe ?now ~(predicates : Profile.obs list) ~(containers : (string * int) list) () =
  if enabled () then begin
    let now = match now with Some t -> t | None -> Unix.gettimeofday () in
    with_lock @@ fun () ->
    Profile.agg_add (bucket_for (epoch_of now)) ~predicates ~containers
  end

(* merge the live buckets (window not yet expired at [now]) *)
let rolling_agg now =
  let live = epoch_of now - !nwindows in
  let g = Profile.agg_create () in
  Array.iter (fun b -> if b.b_epoch > live then Profile.agg_merge ~into:g b.b_agg) !ring;
  g

let fingerprint ?now () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  with_lock @@ fun () -> Profile.agg_fingerprint (rolling_agg now)

let drift_of fp =
  match (!baseline, fp.Profile.weights) with
  | Some b, _ :: _ -> Some (Profile.drift b fp)
  | _ -> None

let status_locked () =
  {
    w_enabled = enabled ();
    w_window_s = !window_s;
    w_windows = !nwindows;
    w_ticks = !ticks;
    w_last_tick = !last_tick;
    w_records = 0;
    w_drift = !last_drift;
    w_drift_ewma = !ewma;
  }

let status () = with_lock status_locked

let tick ?now () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let fp, st =
    with_lock @@ fun () ->
    let fp = Profile.agg_fingerprint (rolling_agg now) in
    let drift = drift_of fp in
    (match drift with
    | Some d ->
      ewma :=
        Some (match !ewma with None -> d | Some e -> (!ewma_alpha *. d) +. ((1.0 -. !ewma_alpha) *. e))
    | None -> ());
    last_drift := drift;
    incr ticks;
    last_tick := Some now;
    (fp, { (status_locked ()) with w_records = fp.Profile.records })
  in
  (* metrics publication outside the lock: Metrics has its own *)
  Metrics.set_counter "watch.ticks" st.w_ticks;
  Metrics.set_gauge "watch.window.records" (float_of_int st.w_records);
  Metrics.set_gauge "watch.window.containers" (float_of_int (List.length fp.Profile.containers));
  Metrics.set_gauge "watch.last_tick_unix" now;
  (match st.w_drift with Some d -> Metrics.set_gauge "watch.drift" d | None -> ());
  (match st.w_drift_ewma with Some d -> Metrics.set_gauge "watch.drift_ewma" d | None -> ());
  let recs = Profile.recommend ~heat:(Heat.snapshot_json ~top_blocks:0 ()) fp in
  let count action =
    List.length (List.filter (fun (r : Profile.recommendation) -> r.Profile.r_action = action) recs)
  in
  Metrics.set_gauge "watch.recommend.shrink" (float_of_int (count "shrink"));
  Metrics.set_gauge "watch.recommend.grow" (float_of_int (count "grow"));
  Metrics.set_gauge "watch.recommend.keep" (float_of_int (count "keep"));
  st

let snapshot_json ?now () =
  let now = match now with Some t -> t | None -> Unix.gettimeofday () in
  let fp, st, base =
    with_lock @@ fun () ->
    let fp = Profile.agg_fingerprint (rolling_agg now) in
    (fp, { (status_locked ()) with w_records = fp.Profile.records }, !baseline)
  in
  let drift_now = match base with Some b when fp.Profile.weights <> [] -> Some (Profile.drift b fp) | _ -> None in
  let heat = Heat.snapshot_json ~top_blocks:0 () in
  let opt_num = function Some v -> Json.Num v | None -> Json.Null in
  let weights =
    List.map
      (fun ((container, kind), w) ->
        Json.Obj [ ("container", Json.Str container); ("kind", Json.Str kind); ("weight", Json.Num w) ])
      fp.Profile.weights
  in
  let recs =
    List.map
      (fun (r : Profile.recommendation) ->
        Json.Obj
          [
            ("container", Json.Str r.Profile.r_container);
            ("action", Json.Str r.Profile.r_action);
            ("factor", Json.Num r.Profile.r_factor);
            ("reason", Json.Str r.Profile.r_reason);
          ])
      (Profile.recommend ~heat fp)
  in
  Json.Obj
    [
      ("enabled", Json.Bool st.w_enabled);
      ("window_s", Json.Num st.w_window_s);
      ("windows", Json.Num (float_of_int st.w_windows));
      ("ticks", Json.Num (float_of_int st.w_ticks));
      ("last_tick_unix", opt_num st.w_last_tick);
      ("records", Json.Num (float_of_int st.w_records));
      ("baseline", Json.Bool (base <> None));
      ("drift", opt_num drift_now);
      ("drift_ewma", opt_num st.w_drift_ewma);
      ("weights", Json.List weights);
      ("containers", Json.List (List.map Profile.cstat_json fp.Profile.containers));
      ("recommendations", Json.List recs);
    ]
