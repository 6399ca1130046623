(* Workload fingerprinting over the JSONL query log. See profile.mli.

   Everything here is pure aggregation over already-parsed Json values;
   the only IO is [load_jsonl]. Determinism matters (the bench gate
   compares drift scores with tight tolerance), so every list is
   explicitly sorted and weights are plain ratios of integer counts. *)

type cstat = {
  c_container : string;
  c_eq : int;
  c_range : int;
  c_wild : int;
  c_exists : int;
  c_join : int;
  c_candidates : int;
  c_matches : int;
  c_queries : int;
  c_decoded_bytes : int;
}

type fingerprint = {
  records : int;
  weights : ((string * string) * float) list;
  containers : cstat list;
}

let selectivity c =
  if c.c_candidates > 0 then Some (float_of_int c.c_matches /. float_of_int c.c_candidates)
  else None

let load_jsonl path =
  let ic = open_in path in
  let out = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.parse line with
         | v -> out := v :: !out
         | exception Json.Parse_error _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !out

(* ---- record field access ---- *)

let str_field name obj = Option.bind (Json.member name obj) Json.to_str
let num_field name obj = Option.bind (Json.member name obj) Json.to_float
let int_field name obj = Option.map int_of_float (num_field name obj)
let list_field name obj = Option.value ~default:[] (Option.bind (Json.member name obj) Json.to_list)

module Smap = Map.Make (String)

module Kmap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

let empty_cstat container =
  {
    c_container = container;
    c_eq = 0;
    c_range = 0;
    c_wild = 0;
    c_exists = 0;
    c_join = 0;
    c_candidates = 0;
    c_matches = 0;
    c_queries = 0;
    c_decoded_bytes = 0;
  }

(* ---- incremental aggregation ---- *)

(* The one place fingerprint semantics live: the offline [of_records]
   path and the streaming watchdog ([Watch]) both feed queries through
   an [agg], so the two can never drift apart — the parity test in
   test_watch.ml holds by construction. *)

type obs = { ob_container : string; ob_kind : string; ob_candidates : int; ob_matches : int }

type agg = {
  mutable g_records : int;
  mutable g_pred_events : int;
  g_events : (string * string, int) Hashtbl.t;
  g_stats : (string, cstat) Hashtbl.t;
}

let agg_create () : agg =
  { g_records = 0; g_pred_events = 0; g_events = Hashtbl.create 16; g_stats = Hashtbl.create 16 }

let bump_event (g : agg) key by =
  Hashtbl.replace g.g_events key (by + Option.value ~default:0 (Hashtbl.find_opt g.g_events key))

let upd_stat (g : agg) container f =
  let cur =
    match Hashtbl.find_opt g.g_stats container with
    | Some c -> c
    | None -> empty_cstat container
  in
  Hashtbl.replace g.g_stats container (f cur)

let agg_add (g : agg) ~(predicates : obs list) ~(containers : (string * int) list) : unit =
  g.g_records <- g.g_records + 1;
  List.iter
    (fun o ->
      g.g_pred_events <- g.g_pred_events + 1;
      bump_event g (o.ob_container, o.ob_kind) 1;
      upd_stat g o.ob_container (fun c ->
          {
            c with
            c_eq = (c.c_eq + if o.ob_kind = "eq" then 1 else 0);
            c_range = (c.c_range + if o.ob_kind = "range" then 1 else 0);
            c_wild = (c.c_wild + if o.ob_kind = "wild" then 1 else 0);
            c_exists = (c.c_exists + if o.ob_kind = "exists" then 1 else 0);
            c_join = (c.c_join + if o.ob_kind = "join" then 1 else 0);
            c_candidates = c.c_candidates + o.ob_candidates;
            c_matches = c.c_matches + o.ob_matches;
          }))
    predicates;
  List.iter
    (fun (container, bytes) ->
      upd_stat g container (fun c ->
          { c with c_queries = c.c_queries + 1; c_decoded_bytes = c.c_decoded_bytes + bytes }))
    containers

let agg_merge ~(into : agg) (src : agg) : unit =
  into.g_records <- into.g_records + src.g_records;
  into.g_pred_events <- into.g_pred_events + src.g_pred_events;
  Hashtbl.iter (fun k n -> bump_event into k n) src.g_events;
  Hashtbl.iter
    (fun container (s : cstat) ->
      upd_stat into container (fun c ->
          {
            c with
            c_eq = c.c_eq + s.c_eq;
            c_range = c.c_range + s.c_range;
            c_wild = c.c_wild + s.c_wild;
            c_exists = c.c_exists + s.c_exists;
            c_join = c.c_join + s.c_join;
            c_candidates = c.c_candidates + s.c_candidates;
            c_matches = c.c_matches + s.c_matches;
            c_queries = c.c_queries + s.c_queries;
            c_decoded_bytes = c.c_decoded_bytes + s.c_decoded_bytes;
          }))
    src.g_stats

let agg_fingerprint (g : agg) : fingerprint =
  let stats =
    Hashtbl.fold (fun container c m -> Smap.add container c m) g.g_stats Smap.empty
  in
  let events =
    if g.g_pred_events > 0 then
      Hashtbl.fold (fun k n m -> Kmap.add k n m) g.g_events Kmap.empty
    else
      (* no pushed predicates anywhere: fall back to container-touch
         events so a navigation-only workload still fingerprints *)
      Smap.fold
        (fun container c m ->
          if c.c_queries > 0 then Kmap.add (container, "touch") c.c_queries m else m)
        stats Kmap.empty
  in
  let total = Kmap.fold (fun _ n acc -> acc + n) events 0 in
  let weights =
    if total = 0 then []
    else Kmap.bindings events |> List.map (fun (k, n) -> (k, float_of_int n /. float_of_int total))
  in
  { records = g.g_records; weights; containers = List.map snd (Smap.bindings stats) }

(* Decompose one parsed query-log record into the aggregator's
   vocabulary: entries without a container field are dropped, exactly
   as the previous monolithic aggregation did. *)
let record_observations (record : Json.t) : obs list * (string * int) list =
  let predicates =
    List.filter_map
      (fun p ->
        match str_field "container" p with
        | None -> None
        | Some container ->
          Some
            {
              ob_container = container;
              ob_kind = Option.value ~default:"eq" (str_field "kind" p);
              ob_candidates = Option.value ~default:0 (int_field "candidates" p);
              ob_matches = Option.value ~default:0 (int_field "matches" p);
            })
      (list_field "predicates" record)
  in
  let containers =
    List.filter_map
      (fun t ->
        match str_field "container" t with
        | None -> None
        | Some container ->
          Some (container, Option.value ~default:0 (int_field "decoded_bytes" t)))
      (list_field "containers" record)
  in
  (predicates, containers)

let of_records records =
  let g = agg_create () in
  List.iter
    (fun record ->
      let predicates, containers = record_observations record in
      agg_add g ~predicates ~containers)
    records;
  agg_fingerprint g

let of_weighted_events events =
  let merged =
    List.fold_left
      (fun m (k, w) -> if w > 0.0 then Kmap.update k (fun v -> Some (Option.value ~default:0.0 v +. w)) m else m)
      Kmap.empty events
  in
  let total = Kmap.fold (fun _ w acc -> acc +. w) merged 0.0 in
  let weights =
    if total <= 0.0 then [] else Kmap.bindings merged |> List.map (fun (k, w) -> (k, w /. total))
  in
  { records = 0; weights; containers = [] }

let drift a b =
  let m =
    List.fold_left (fun m (k, w) -> Kmap.add k (w, 0.0) m) Kmap.empty a.weights
  in
  let m =
    List.fold_left
      (fun m (k, w) ->
        Kmap.update k (function Some (wa, _) -> Some (wa, w) | None -> Some (0.0, w)) m)
      m b.weights
  in
  0.5 *. Kmap.fold (fun _ (wa, wb) acc -> acc +. Float.abs (wa -. wb)) m 0.0

(* ---- recommendations ---- *)

type recommendation = { r_container : string; r_action : string; r_factor : float; r_reason : string }

(* pull (seq_frac, header_skips, decodes) per container out of a
   Heat.snapshot_json value *)
let heat_access heat =
  match Option.bind (Json.member "containers" heat) Json.to_list with
  | None -> Smap.empty
  | Some conts ->
    List.fold_left
      (fun m c ->
        match str_field "container" c with
        | None -> m
        | Some path ->
          let f name = Option.value ~default:0 (int_field name c) in
          let seq = f "seq_touches" and runs = f "runs" in
          let seq_frac =
            if seq + runs > 0 then float_of_int seq /. float_of_int (seq + runs) else 0.0
          in
          Smap.add path (seq_frac, f "header_skips", f "decodes") m)
      Smap.empty conts

let recommend ?heat fp =
  let access = match heat with Some h -> heat_access h | None -> Smap.empty in
  List.map
    (fun c ->
      let pushed = c.c_eq + c.c_range + c.c_wild + c.c_exists + c.c_join in
      let sel = selectivity c in
      let acc = Smap.find_opt c.c_container access in
      let keep reason = { r_container = c.c_container; r_action = "keep"; r_factor = 1.0; r_reason = reason } in
      match (sel, acc) with
      | Some s, _ when pushed > 0 && s < 0.05 && (match acc with Some (sf, _, _) -> sf < 0.5 | None -> true) ->
        {
          r_container = c.c_container;
          r_action = "shrink";
          r_factor = 0.25;
          r_reason =
            Printf.sprintf "selective point access (selectivity %.3f); smaller blocks sharpen header pruning" s;
        }
      | _, Some (sf, skips, decodes) when sf >= 0.9 && skips < decodes ->
        {
          r_container = c.c_container;
          r_action = "grow";
          r_factor = 4.0;
          r_reason =
            Printf.sprintf "scan-dominated access (%.0f%% sequential, little pruning); larger blocks amortize headers"
              (100.0 *. sf);
        }
      | Some _, _ -> keep "mixed access; current block size is a reasonable compromise"
      | None, _ -> keep "no pushed predicates observed; nothing to optimize against")
    fp.containers

(* Parse the "recommendations" array of a report back into actionable
   (path, factor) pairs — the consumer side of report_json, used by
   `xquec compress --blocks-from` and `xquec compact --profile`. *)
let recommendations_of_report (report : Json.t) : (string * float) list =
  match Option.bind (Json.member "recommendations" report) Json.to_list with
  | None -> []
  | Some recs ->
    List.filter_map
      (fun r ->
        match (str_field "container" r, str_field "action" r) with
        | Some path, Some action when action <> "keep" ->
          (match Option.bind (Json.member "factor" r) Json.to_float with
          | Some f when f > 0.0 -> Some (path, f)
          | _ -> None)
        | _ -> None)
      recs

(* ---- reports ---- *)

let num n = Json.Num (float_of_int n)

let cstat_json c =
  Json.Obj
    [
      ("container", Json.Str c.c_container);
      ("eq", num c.c_eq);
      ("range", num c.c_range);
      ("wild", num c.c_wild);
      ("exists", num c.c_exists);
      ("join", num c.c_join);
      ("candidates", num c.c_candidates);
      ("matches", num c.c_matches);
      ("selectivity", match selectivity c with Some s -> Json.Num s | None -> Json.Null);
      ("queries", num c.c_queries);
      ("decoded_bytes", num c.c_decoded_bytes);
    ]

let report_json ?baseline ?heat fp =
  let weights =
    List.map
      (fun ((container, kind), w) ->
        Json.Obj [ ("container", Json.Str container); ("kind", Json.Str kind); ("weight", Json.Num w) ])
      fp.weights
  in
  let recs =
    List.map
      (fun r ->
        Json.Obj
          [
            ("container", Json.Str r.r_container);
            ("action", Json.Str r.r_action);
            ("factor", Json.Num r.r_factor);
            ("reason", Json.Str r.r_reason);
          ])
      (recommend ?heat fp)
  in
  Json.Obj
    ([ ("records", num fp.records); ("weights", Json.List weights) ]
    @ (match baseline with Some b -> [ ("drift", Json.Num (drift b fp)) ] | None -> [])
    @ [
        ("containers", Json.List (List.map cstat_json fp.containers));
        ("recommendations", Json.List recs);
      ])

let render ?baseline ?heat fp =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "workload fingerprint over %d query-log records\n" fp.records);
  (match baseline with
  | Some base -> Buffer.add_string b (Printf.sprintf "drift vs baseline: %.4f\n" (drift base fp))
  | None -> ());
  let width =
    List.fold_left (fun acc c -> max acc (String.length c.c_container)) (String.length "container") fp.containers
  in
  Buffer.add_string b
    (Printf.sprintf "%-*s %5s %5s %5s %6s %5s %11s %11s %7s %12s\n" width "container" "eq" "range" "wild"
       "exists" "join" "candidates" "matches" "sel" "decoded_b");
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "%-*s %5d %5d %5d %6d %5d %11d %11d %7s %12d\n" width c.c_container c.c_eq c.c_range
           c.c_wild c.c_exists c.c_join c.c_candidates c.c_matches
           (match selectivity c with Some s -> Printf.sprintf "%.3f" s | None -> "-")
           c.c_decoded_bytes))
    fp.containers;
  Buffer.add_string b "\nblock-size recommendations:\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-*s %-6s x%-4g %s\n" width r.r_container r.r_action r.r_factor r.r_reason))
    (recommend ?heat fp);
  Buffer.contents b
