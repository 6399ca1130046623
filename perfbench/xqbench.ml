(* The repository benchmark. One process, one closed-loop client.

     xqbench --workload build|xmark_analytic|point_lookups --seed N
             --seconds S --trace 0|1

   Every input is generated from --seed; the system is driven only
   through its public modules. With --trace 0 the last stdout line
   carries the end-to-end metrics, with --trace 1 the per-layer ones
   (spans and counter deltas taken by this file around each layer
   call). The line before it is a JSON object of details: the seed,
   input and image sizes, sample counts and every ratio with its base.
   NOTES.md explains the workloads and what each metric should move. *)

module Engine = Xquec_core.Engine
module Executor = Xquec_core.Executor
module Loader = Xquec_core.Loader
module Partitioner = Xquec_core.Partitioner
module Plan_cache = Xquec_core.Plan_cache
module Repository = Storage.Repository
module Buffer_pool = Storage.Buffer_pool
module Domain_pool = Storage.Domain_pool
module Structure_tree = Storage.Structure_tree
module Container = Storage.Container

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let json_obj fields = "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let metrics : (string * string * float) list ref = ref []
let metric name unit value = metrics := (name, unit, value) :: !metrics
let details : (string * string) list ref = ref []
let detail key json = details := (key, json) :: !details

let ratio_json (r : Stats.ratio) =
  json_obj [ ("value", json_num r.value); ("num", json_num r.num); ("den", json_num r.den) ]

(* A per-layer ratio: the metric, and its base among the details. *)
let ratio_metric name unit (r : Stats.ratio) =
  metric name unit r.value;
  detail name (ratio_json r)

let attempted = ref 0
let failed = ref 0

let fail what =
  incr failed;
  Printf.eprintf "xqbench: WRONG RESULT: %s\n%!" what

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* [key]: the (container path suffix, id) a point lookup resolves. *)
type query = { qid : string; text : string; key : (string * string) option }

let xmark_mix =
  List.map
    (fun id -> { qid = id; text = (Xmark.Queries.by_id id).Xmark.Queries.text; key = None })
    (Xmark.Queries.fig7_ids @ [ "Q8" ])

(* A document of a workload: its name, XML, the workload it is tuned
   with, and the query checked against the oracle after restore. *)
type doc = { name : string; xml : string; tuning : Xquery.Ast.expr list; check : query }

let xmark_doc ~seed ~scale =
  {
    name = "auction.xml";
    xml = Xmark.Xmlgen.generate ~seed ~scale ();
    tuning = List.map (fun q -> Xquery.Parser.parse q.Xmark.Queries.text) Xmark.Queries.all;
    check = { qid = "Q2"; text = (Xmark.Queries.by_id "Q2").Xmark.Queries.text; key = None };
  }

(* The corpus the build workload compresses: XMark plus the three
   Fig. 6-left stand-ins at the corpus's default scales, all seeded.
   Each stand-in is tuned with its own check query. *)
let build_corpus ~seed =
  let corpus name xml check =
    { name; xml; tuning = [ Xquery.Parser.parse check ]; check = { qid = name; text = check; key = None } }
  in
  [
    xmark_doc ~seed ~scale:0.5;
    corpus "shakespeare.xml"
      (Xmark.Datasets.shakespeare ~seed ~scale:1.5 ())
      "for $s in document(\"shakespeare.xml\")/PLAY/ACT/SCENE return $s/TITLE/text()";
    corpus "washington-course.xml"
      (Xmark.Datasets.course ~seed ~scale:1.5 ())
      "for $c in document(\"washington-course.xml\")//course_listing where $c/enrollment/@cap >= 210 return <c n=\"{$c/@reg_num}\">{$c/title/text()}</c>";
    corpus "baseball.xml"
      (Xmark.Datasets.baseball ~seed ~scale:1.0 ())
      "for $p in document(\"baseball.xml\")/SEASON/LEAGUE/TEAM/PLAYER where $p/HOME_RUNS/text() >= 45 return $p/SURNAME/text()";
  ]

(* point_lookups: selective queries over ids that exist, keys drawn
   Zipf-skewed (s = 1) per kind from the seed. *)
let lookup_kinds (c : Xmark.Xmlgen.counts) =
  let doc = "document(\"auction.xml\")" in
  [
    (* share, id population, query and looked-up (path suffix, id) of one key *)
    (10, c.people, fun k ->
      ( Printf.sprintf "for $p in %s/site/people/person[@id = \"person%d\"] return $p/name/text()" doc k,
        Some ("person/@id", Printf.sprintf "person%d" k) ));
    (10, c.people, fun k ->
      ( Printf.sprintf "for $p in %s/site/people/person[@id = \"person%d\"] return $p/emailaddress/text()" doc k,
        Some ("person/@id", Printf.sprintf "person%d" k) ));
    (15, c.open_auctions, fun k ->
      ( Printf.sprintf "for $a in %s/site/open_auctions/open_auction[@id = \"open_auction%d\"] return $a/initial/text()" doc k,
        Some ("open_auction/@id", Printf.sprintf "open_auction%d" k) ));
    (55, c.items_per_region * Array.length Xmark.Xmlgen.regions, fun k ->
      ( Printf.sprintf "for $i in %s/site/regions//item[@id = \"item%d\"] return $i/description" doc k,
        Some ("item/@id", Printf.sprintf "item%d" k) ));
    (* prices are 1.00 .. 300.99: a 2-unit window *)
    (10, 300, fun k ->
      ( Printf.sprintf
          "for $c in %s/site/closed_auctions/closed_auction where $c/price/text() >= %d and $c/price/text() < %d return $c/price/text()"
          doc (k + 1) (k + 3),
        None ));
  ]

(* odd, so that per-operation alternation in a traced run flips every
   cycle of the stream *)
let stream_len = 2047

let lookup_stream ~seed ~scale =
  let kinds = Array.of_list (lookup_kinds (Xmark.Xmlgen.counts_of_scale scale)) in
  let keys =
    Array.mapi
      (fun i (_, n, _) -> Stats.key_stream ~seed:((seed * 31) + i) ~n ~s:1.0 ~len:stream_len)
      kinds
  in
  let total = Array.fold_left (fun a (w, _, _) -> a + w) 0 kinds in
  let rng = Random.State.make [| seed; 0x10c |] in
  Array.init stream_len (fun i ->
      let r = ref (Random.State.int rng total) and k = ref 0 in
      while
        let w, _, _ = kinds.(!k) in
        !r >= w
      do
        let w, _, _ = kinds.(!k) in
        r := !r - w;
        incr k
      done;
      let _, _, query = kinds.(!k) in
      let text, key = query keys.(!k).(i) in
      { qid = Printf.sprintf "lookup%d" !k; text; key })

(* ------------------------------------------------------------------ *)
(* Layer calls                                                         *)
(* ------------------------------------------------------------------ *)

let span = Tracer.span

(* A time measured over [start, stop] (seconds since the epoch). *)
type timed = { start : float; stop : float; raw : float }

let timed start raw = { start; stop = now (); raw }

(* Rescaled to the reference host by the slices around it (Calib). *)
let rescaled t = Calib.rescale ~t0:(t.start -. 0.1) ~t1:(t.stop +. 0.1) t.raw

let counters () =
  let b = Buffer_pool.snapshot () in
  let d = Domain_pool.snapshot () in
  let p = Plan_cache.snapshot () in
  let j = Executor.join_stats () in
  [
    ("bp.hits", b.Buffer_pool.s_hits);
    ("bp.misses", b.Buffer_pool.s_misses);
    ("bp.latch_waits", b.Buffer_pool.s_latch_waits);
    ("bp.evictions", b.Buffer_pool.s_evictions);
    ("bp.payload_bytes", b.Buffer_pool.s_payload_bytes);
    ("bp.skipped_bytes", b.Buffer_pool.s_skipped_bytes);
    ("dp.tasks", d.Domain_pool.p_tasks);
    ("dp.inline", d.Domain_pool.p_inline);
    ("pc.hits", p.Plan_cache.s_hits);
    ("pc.misses", p.Plan_cache.s_misses);
    ("join.probed", j.Executor.j_blocks_probed);
    ("join.skipped", j.Executor.j_blocks_skipped);
  ]

(* Per query id: traced executor.run and executor.serialize ms. *)
let per_qid : (string, float list ref * float list ref) Hashtbl.t = Hashtbl.create 32

let note_qid qid run ser =
  let r, s =
    match Hashtbl.find_opt per_qid qid with
    | Some v -> v
    | None ->
      let v = (ref [], ref []) in
      Hashtbl.replace per_qid qid v;
      v
  in
  r := run :: !r;
  s := ser :: !s

(* One query as a user issues it: compile through the plan cache,
   evaluate, serialize (decompressing the result). Returns the latency
   in ms; the answer is checked against the oracle digest outside it. *)
let run_query eng oracle q =
  incr attempted;
  let t0 = now () in
  let answer =
    try
      Some
        (Tracer.op ~counters ~label:q.qid "query" (fun () ->
             let ast, _ = span "engine.compile" (fun () -> Engine.compile q.text) in
             let items = span "executor.run" (fun () -> Engine.query_ast eng ast) in
             let run_ms = Tracer.last_ms () in
             let out = span "executor.serialize" (fun () -> Executor.serialize eng.Engine.repo items) in
             if Tracer.enabled () then note_qid q.qid run_ms (Tracer.last_ms ());
             out))
    with e ->
      Printf.eprintf "xqbench: %s raised %s\n%!" q.qid (Printexc.to_string e);
      None
  in
  let ms = (now () -. t0) *. 1e3 in
  (match answer with
  | Some a when Digest.string a = Hashtbl.find oracle q.text -> ()
  | Some _ -> fail (Printf.sprintf "%s answer differs from the reference: %s" q.qid q.text)
  | None -> fail (Printf.sprintf "%s failed: %s" q.qid q.text));
  ms

(* Compress every document (parse, load, tune, serialize), then restore
   every image. Returns the compress and restore times (seconds) and
   per document its image and restored engine. Reference slices run
   between the documents and, unless tracing, during compression. *)
let compress_and_restore docs =
  let window f =
    let t0 = now () and c0 = Calib.spent () in
    let r = f () in
    (r, now () -. t0 -. (Calib.spent () -. c0))
  in
  let start = now () in
  let built =
    List.map
      (fun d ->
        Calib.slices 3;
        window (fun () ->
            let compress () =
              Tracer.op "compress" (fun () ->
                  let dom = span "xmlkit.parse" (fun () -> Xmlkit.Parser.parse_string d.xml) in
                  let repo = span "loader.load" (fun () -> Loader.load_document ~name:d.name dom) in
                  ignore (span "partitioner.optimize" (fun () -> Partitioner.optimize repo d.tuning));
                  span "repository.serialize" (fun () -> Repository.serialize repo))
            in
            if Tracer.enabled () then compress () else Calib.during compress))
      docs
  in
  let restored =
    List.map
      (fun (image, _) ->
        Calib.slices 3;
        window (fun () ->
            let repo =
              Tracer.op "restore" (fun () ->
                  span "repository.deserialize" (fun () -> Repository.deserialize image))
            in
            { Engine.repo; partitioning = None }))
      built
  in
  Calib.slices 3;
  let total l = timed start (List.fold_left (fun a (_, t) -> a +. t) 0.0 l) in
  (total built, total restored, List.map2 (fun (image, _) (eng, _) -> (image, eng)) built restored)

(* Reference answers: Galax-like over the uncompressed DOM, one MD5
   digest per distinct query text. *)
let oracle_of (pairs : (doc * query list) list) =
  let table = Hashtbl.create 1024 in
  List.iter
    (fun (d, qs) ->
      let docs = [ (d.name, Xmlkit.Parser.parse_string d.xml) ] in
      List.iter
        (fun q ->
          if not (Hashtbl.mem table q.text) then
            Hashtbl.replace table q.text
              (Digest.string
                 (Baselines.Galax_like.serialize
                    (Baselines.Galax_like.run ~docs (Xquery.Parser.parse q.text)))))
        qs)
    pairs;
  table

(* ------------------------------------------------------------------ *)
(* Measurements shared by the workloads                                *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec find () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> Some kb)
        else find ()
      in
      find ()
    with _ -> None
  in
  match from_proc with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let median_of l = Stats.median (Stats.sorted (Array.of_list l))

(* An end-to-end time: the median of its samples, each rescaled to the
   reference host; the raw median goes to the details. *)
let timed_metric name unit (samples : timed list) =
  metric name unit (median_of (List.map rescaled samples));
  detail name
    (json_obj
       [ ("raw_median", json_num (median_of (List.map (fun t -> t.raw) samples)));
         ("samples", string_of_int (List.length samples)) ])

(* p50 / tail / throughput of the latencies (ms) of a closed loop that
   ran over [loop]. *)
let latency_metrics ~(loop : timed) (lat : timed list) =
  let scaled = List.map rescaled lat in
  let a = Stats.sorted (Array.of_list scaled) in
  let n = Array.length a in
  metric "query_p50_ms" "ms" (Stats.median a);
  (match Stats.tail a with
  | Some (v, pct, beyond) ->
    metric "query_p99_ms" "ms" v;
    detail "query_p99_ms"
      (json_obj [ ("percentile", json_num pct); ("samples", string_of_int n); ("beyond", string_of_int beyond) ])
  | None -> failwith "too few query samples for a tail percentile");
  detail "query_samples" (string_of_int n);
  (* the loop's time outside the operations (answer checks) is
     rescaled by the loop's overall reference *)
  let busy_raw = List.fold_left (fun acc t -> acc +. t.raw) 0.0 lat /. 1e3 in
  let busy = List.fold_left ( +. ) 0.0 scaled /. 1e3 in
  let idle = rescaled { loop with raw = loop.raw -. busy_raw } in
  metric "queries_per_s" "1/s" (float_of_int n /. (busy +. idle));
  detail "queries_per_s"
    (json_obj [ ("raw", json_num (float_of_int n /. loop.raw)); ("loop_s", json_num loop.raw) ])

(* Closed loop for [seconds]: [step i] runs operation [i] and returns
   its latency in ms. A reference slice runs every 50 ms between
   operations; its time is left out of the loop's. In a traced run,
   tracing flips every [round] operations, so traced and untraced
   latencies come from the same process for the overhead figure.
   Returns the loop's time and the (untraced, traced) latencies. *)
let closed_loop ~trace ~seconds ~round step =
  let off = ref [] and on = ref [] in
  Calib.slices 3;
  let t0 = now () and c0 = Calib.spent () in
  let last_slice = ref t0 in
  let i = ref 0 in
  while now () -. t0 < seconds do
    if trace then Tracer.set_enabled (!i / round mod 2 = 1);
    let start = now () in
    let ms = step !i in
    let sample = { start; stop = start +. (ms /. 1e3); raw = ms } in
    if Tracer.enabled () then on := sample :: !on else off := sample :: !off;
    incr i;
    if now () -. !last_slice > 0.05 then begin
      Calib.slices 1;
      last_slice := now ()
    end
  done;
  Tracer.set_enabled false;
  let loop = { start = t0; stop = now (); raw = now () -. t0 -. (Calib.spent () -. c0) } in
  Calib.slices 3;
  (loop, !off, !on)

(* Structure-tree primitives on a seeded walk over the loaded tree:
   median over 5 batches of ns per call. *)
let tree_walk ~seed tree =
  let n = Structure_tree.node_count tree in
  let rng = Random.State.make [| seed; 0x7ee |] in
  let nodes = Array.init 4096 (fun _ -> Random.State.int rng n) in
  let others = Array.init 4096 (fun _ -> Random.State.int rng n) in
  let child_tags =
    Array.map
      (fun v ->
        match Structure_tree.first_child tree v with
        | Some c -> Structure_tree.tag tree c
        | None -> Structure_tree.tag tree v)
      nodes
  in
  let sink = ref 0 in
  let bench name f =
    let samples =
      List.init 5 (fun _ ->
          let t0 = now () in
          Array.iteri (fun i v -> sink := !sink + f i v) nodes;
          (now () -. t0) *. 1e9 /. float_of_int (Array.length nodes))
    in
    metric ("structure_tree." ^ name ^ "_ns") "ns" (median_of samples)
  in
  bench "children_with_tag" (fun i v -> List.length (Structure_tree.children_with_tag tree v child_tags.(i)));
  bench "parent" (fun _ v -> Structure_tree.parent tree v);
  bench "is_ancestor" (fun i v ->
      if Structure_tree.is_ancestor tree ~ancestor:v ~descendant:others.(i) then 1 else 0);
  bench "subtree_size" (fun _ v -> Structure_tree.subtree_size tree v);
  ignore (Sys.opaque_identity !sink)

(* Container.lookup_eq on the workload's keys: (container path suffix,
   key) pairs, timed over every container whose path ends with the
   suffix (the item ids are spread over one container per region). *)
let lookup_eq_us (repo : Repository.t) keys =
  let ends_with s suffix =
    let ls = String.length s and lx = String.length suffix in
    ls >= lx && String.sub s (ls - lx) lx = suffix
  in
  let targets =
    List.concat_map
      (fun (suffix, key) ->
        Array.to_list repo.Repository.containers
        |> List.filter_map (fun (c : Container.t) ->
               if ends_with c.Container.path suffix then
                 try Some (c, Container.compress_constant c key) with _ -> None
               else None))
      keys
  in
  let calls = ref 0 in
  let t0 = now () in
  List.iter
    (fun (c, code) ->
      (try ignore (Container.lookup_eq c code) with _ -> ());
      incr calls)
    targets;
  let us = (now () -. t0) *. 1e6 in
  detail "container.lookup_eq_calls" (string_of_int !calls);
  metric "container.lookup_eq_us" "us" (if !calls = 0 then 0.0 else us /. float_of_int !calls)

(* Decoded bytes resident after one pass of [ops] into an empty pool
   under the default budget: the working set those operations decode. *)
let working_set ops =
  let budget = Buffer_pool.budget_bytes () in
  Buffer_pool.set_budget ~bytes:(64 * 1024 * 1024);
  Buffer_pool.clear ();
  ops ();
  let ws = (Buffer_pool.snapshot ()).Buffer_pool.s_resident_bytes in
  Buffer_pool.set_budget ~bytes:budget;
  detail "working_set"
    (json_obj [ ("decoded_bytes", string_of_int ws); ("pool_budget_bytes", string_of_int budget) ])

(* Per-layer metrics over the traced operations. *)
let layer_metrics ~queries ~passes ~qids =
  let c = Tracer.counter in
  let summary = Tracer.summary () in
  let incl name = match List.assoc_opt name summary with Some (_, ms, _) -> ms | None -> 0.0 in
  let per_pass name = if passes = 0 then 0.0 else incl name /. float_of_int passes in
  List.iter
    (fun l -> metric (l ^ "_ms") "ms" (per_pass l))
    [ "xmlkit.parse"; "loader.load"; "partitioner.optimize"; "repository.serialize"; "repository.deserialize" ];
  detail "compression_passes_traced" (string_of_int passes);
  let per_query name = if queries = 0 then 0.0 else incl name /. float_of_int queries in
  metric "executor.run_ms" "ms" (per_query "executor.run");
  metric "executor.serialize_ms" "ms" (per_query "executor.serialize");
  metric "plan_cache.compile_us" "us" (1e3 *. per_query "engine.compile");
  detail "queries_traced" (string_of_int queries);
  List.iter
    (fun qid ->
      let mean l = match !l with [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      let r, s = Option.value ~default:(ref [], ref []) (Hashtbl.find_opt per_qid qid) in
      metric ("executor.run_ms." ^ qid) "ms" (mean r);
      metric ("executor.serialize_ms." ^ qid) "ms" (mean s))
    qids;
  let pq name k = ratio_metric name "count/query" (Stats.per_op (c k) ~ops:queries) in
  pq "executor.join.blocks_probed" "join.probed";
  pq "executor.join.blocks_skipped" "join.skipped";
  ratio_metric "buffer_pool.hit_ratio" "ratio"
    (Stats.hit_ratio ~hits:(c "bp.hits") ~misses:(c "bp.misses") ~latch_waits:(c "bp.latch_waits"));
  pq "buffer_pool.misses_per_query" "bp.misses";
  pq "buffer_pool.evictions_per_query" "bp.evictions";
  ratio_metric "buffer_pool.payload_bytes_per_query" "B/query" (Stats.per_op (c "bp.payload_bytes") ~ops:queries);
  ratio_metric "buffer_pool.skipped_bytes_ratio" "ratio"
    (Stats.skipped_ratio ~skipped:(c "bp.skipped_bytes") ~decoded:(c "bp.payload_bytes"));
  pq "buffer_pool.latch_waits" "bp.latch_waits";
  pq "domain_pool.tasks_per_query" "dp.tasks";
  ratio_metric "domain_pool.inline_ratio" "ratio" (Stats.ratio ~num:(float_of_int (c "dp.inline")) ~den:(float_of_int (c "dp.tasks")));
  metric "domain_pool.max_queue_depth" "count" (float_of_int (Domain_pool.snapshot ()).Domain_pool.p_max_queue_depth);
  ratio_metric "plan_cache.hit_ratio" "ratio"
    (Stats.ratio ~num:(float_of_int (c "pc.hits")) ~den:(float_of_int (c "pc.hits" + c "pc.misses")));
  (* self time per operation, by layer *)
  let ops = Tracer.ops () in
  List.iter
    (fun name ->
      let self = match List.assoc_opt name summary with Some (_, _, s) -> s | None -> 0.0 in
      metric ("self_ms." ^ name) "ms/op" (if ops = 0 then 0.0 else self /. float_of_int ops))
    [ "query"; "compress"; "restore"; "engine.compile"; "executor.run"; "executor.serialize";
      "xmlkit.parse"; "loader.load"; "partitioner.optimize"; "repository.serialize";
      "repository.deserialize" ];
  detail "ops_traced" (string_of_int ops)

(* Tracing overhead: traced against untraced medians of the same run,
   both rescaled to the reference host. *)
let overhead name ~(traced : timed list) ~(untraced : timed list) =
  match (traced, untraced) with
  | _ :: _, _ :: _ ->
    let t = median_of (List.map rescaled traced) and u = median_of (List.map rescaled untraced) in
    metric ("trace.overhead." ^ name) "ratio" ((t /. u) -. 1.0);
    detail ("trace.overhead." ^ name)
      (json_obj [ ("traced", json_num t); ("untraced", json_num u);
                  ("traced_samples", string_of_int (List.length traced));
                  ("untraced_samples", string_of_int (List.length untraced)) ])
  | _ -> metric ("trace.overhead." ^ name) "ratio" 0.0

let size_metrics (repos : Repository.t list) =
  let sum f = List.fold_left (fun a r -> a + f (Repository.size_breakdown r)) 0 repos in
  metric "repository.tree_bytes" "B" (float_of_int (sum (fun b -> b.Repository.tree_bytes)));
  metric "repository.containers_bytes" "B" (float_of_int (sum (fun b -> b.Repository.containers_bytes)));
  metric "repository.models_bytes" "B" (float_of_int (sum (fun b -> b.Repository.models_bytes)));
  metric "repository.summary_bytes" "B" (float_of_int (sum (fun b -> b.Repository.summary_bytes)))

let stored_ratio docs images =
  let r =
    Stats.ratio
      ~num:(float_of_int (List.fold_left (fun a i -> a + String.length i) 0 images))
      ~den:(float_of_int (List.fold_left (fun a d -> a + String.length d.xml) 0 docs))
  in
  metric "stored_bytes_per_input_byte" "B/B" r.value;
  detail "stored_bytes_per_input_byte" (ratio_json r)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let check_roundtrip d image (eng : Engine.t) =
  incr attempted;
  if not (String.equal image (Repository.serialize eng.Engine.repo)) then
    fail (d.name ^ ": save -> restore -> save is not byte-identical")

(* build: compress and restore the corpus, pass after pass. *)
let build ~seed ~seconds ~trace =
  let setups =
    List.init 3 (fun _ ->
        Calib.slices 5;
        let t0 = now () and c0 = Calib.spent () in
        let docs = build_corpus ~seed in
        (* warm-up: one round trip of the smallest document *)
        ignore (compress_and_restore [ List.nth docs 3 ]);
        (docs, timed t0 (now () -. t0 -. (Calib.spent () -. c0))))
  in
  Calib.slices 5;
  let docs = fst (List.hd setups) in
  let oracle = oracle_of (List.map (fun d -> (d, [ d.check ])) docs) in
  detail "xml_bytes" (json_obj (List.map (fun d -> (d.name, string_of_int (String.length d.xml))) docs));
  let passes_on = ref [] and passes_off = ref [] and restores = ref [] and last = ref [] in
  let traced_passes = ref 0 in
  let t0 = now () in
  let pass = ref 0 in
  while !pass = 0 || now () -. t0 < seconds do
    Tracer.set_enabled (trace && !pass mod 2 = 0);
    if Tracer.enabled () then incr traced_passes;
    let compress_s, restore_s, out = compress_and_restore docs in
    let passes = if Tracer.enabled () then passes_on else passes_off in
    passes := compress_s :: !passes;
    restores := restore_s :: !restores;
    Tracer.set_enabled false;
    List.iter2 (fun d (image, eng) -> check_roundtrip d image eng) docs out;
    last := out;
    incr pass
  done;
  detail "passes" (string_of_int !pass);
  let images = List.map fst !last and engines = List.map snd !last in
  (* seven more restores of the corpus, for restore_ms *)
  for _ = 1 to 7 do
    let t0 = now () and c0 = Calib.spent () in
    List.iter (fun image -> ignore (Sys.opaque_identity (Repository.deserialize image)); Calib.slices 1) images;
    restores := timed t0 (now () -. t0 -. (Calib.spent () -. c0)) :: !restores
  done;
  (* the check queries on the last pass's restored images (the first
     round cold), 25 rounds of the XMark one six times and each other
     one once: 225 latencies, two thirds from one query, so that the
     median lies inside one query's latencies rather than between two *)
  let lat_off = ref [] and lat_on = ref [] in
  let q0 = now () and c0 = Calib.spent () in
  for round = 0 to 24 do
    Tracer.set_enabled (trace && round mod 2 = 1);
    List.iteri
      (fun i (d, eng) ->
        for _ = 1 to if i = 0 then 6 else 1 do
          let start = now () in
          let ms = run_query eng oracle d.check in
          let sample = { start; stop = start +. (ms /. 1e3); raw = ms } in
          if Tracer.enabled () then lat_on := sample :: !lat_on else lat_off := sample :: !lat_off
        done)
      (List.combine docs engines);
    Tracer.set_enabled false;
    Calib.slices 1
  done;
  let loop = { start = q0; stop = now (); raw = now () -. q0 -. (Calib.spent () -. c0) } in
  if not trace then begin
    timed_metric "setup_s" "s" (List.map snd setups);
    timed_metric "compress_s" "s" !passes_off;
    timed_metric "restore_ms" "ms" (List.map (fun t -> { t with raw = 1e3 *. t.raw }) !restores);
    stored_ratio docs images;
    latency_metrics ~loop !lat_off
  end
  else begin
    let xmark = List.hd engines in
    layer_metrics ~queries:(List.length !lat_on) ~passes:!traced_passes
      ~qids:(List.map (fun q -> q.qid) xmark_mix);
    size_metrics (List.map (fun e -> e.Engine.repo) engines);
    tree_walk ~seed xmark.Engine.repo.Repository.tree;
    lookup_eq_us xmark.Engine.repo [ ("person/@id", "person0") ];
    overhead "compress_s" ~traced:!passes_on ~untraced:!passes_off;
    overhead "query_p50_ms" ~traced:!lat_on ~untraced:!lat_off
  end

(* The two query workloads share their set-up: the scale-2 document,
   compressed workload-tuned, restored from its image, then configured
   (pool budget, 128-entry plan cache) and warmed. *)
let query_workload ~name ~seed ~seconds ~trace =
  let scale = 2.0 in
  let analytic = name = "xmark_analytic" in
  let ops = if analytic then Array.of_list xmark_mix else lookup_stream ~seed ~scale in
  let n_ops = Array.length ops in
  let doc = xmark_doc ~seed ~scale in
  let oracle = oracle_of [ (doc, Array.to_list ops) ] in
  detail "distinct_queries" (string_of_int (Hashtbl.length oracle));
  detail "xml_bytes" (string_of_int (String.length doc.xml));
  let budget = if analytic then 64 * 1024 * 1024 else 64 * 1024 in
  let warm_n = if analytic then n_ops else 256 in
  (* two full set-ups; the second one's repository is measured. In a
     traced run the first is traced, for the compress overhead. *)
  let setups = ref [] and current = ref None in
  for i = 0 to 1 do
    current := None;
    Gc.compact ();
    Calib.slices 5;
    let t0 = now () and c0 = Calib.spent () in
    Tracer.set_enabled (trace && i = 0);
    let doc = xmark_doc ~seed ~scale in
    let compress_s, _, out = compress_and_restore [ doc ] in
    Tracer.set_enabled false;
    let image, eng = List.hd out in
    Buffer_pool.set_budget ~bytes:budget;
    Buffer_pool.clear ();
    Plan_cache.set_capacity 128;
    Plan_cache.clear ();
    for j = 0 to warm_n - 1 do
      ignore (run_query eng oracle ops.(j))
    done;
    setups := (timed t0 (now () -. t0 -. (Calib.spent () -. c0)), compress_s) :: !setups;
    current := Some (image, eng);
    Calib.slices 5
  done;
  let setups = List.rev !setups in
  let image, eng = Option.get !current in
  (* restore_ms: fifteen more restores of the image, between slices *)
  let restores =
    List.init 15 (fun _ ->
        Calib.slices 2;
        let t0 = now () in
        ignore (Sys.opaque_identity (Repository.deserialize image));
        timed t0 ((now () -. t0) *. 1e3))
  in
  Calib.slices 2;
  Domain_pool.reset_stats ();
  let loop, off, on =
    closed_loop ~trace ~seconds
      ~round:(if analytic then n_ops else 1)
      (fun i -> run_query eng oracle ops.((warm_n + i) mod n_ops))
  in
  working_set (fun () -> Array.iter (fun q -> ignore (run_query eng oracle q)) ops);
  let repo = eng.Engine.repo in
  if not trace then begin
    timed_metric "setup_s" "s" (List.map fst setups);
    timed_metric "compress_s" "s" (List.map snd setups);
    timed_metric "restore_ms" "ms" restores;
    stored_ratio [ doc ] [ image ];
    latency_metrics ~loop off
  end
  else begin
    layer_metrics ~queries:(List.length on) ~passes:1 ~qids:(List.map (fun q -> q.qid) xmark_mix);
    size_metrics [ repo ];
    tree_walk ~seed repo.Repository.tree;
    lookup_eq_us repo
      (if analytic then [ ("person/@id", "person0"); ("personref/@person", "person18") ]
       else Array.to_list ops |> List.filter_map (fun q -> q.key));
    (match setups with
    | [ (_, traced); (_, untraced) ] -> overhead "compress_s" ~traced:[ traced ] ~untraced:[ untraced ]
    | _ -> assert false);
    overhead "query_p50_ms" ~traced:on ~untraced:off
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME build | xmark_analytic | point_lookups");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "xqbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (match !workload with
  | "build" -> build ~seed ~seconds ~trace
  | ("xmark_analytic" | "point_lookups") as name -> query_workload ~name ~seed ~seconds ~trace
  | w ->
    Printf.eprintf "xqbench: unknown workload %S\n" w;
    exit 2);
  if not trace then metric "peak_rss_mb" "MB" (peak_rss_mb ())
  else begin
    let dir = ".perfbench_out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "trace-%s.json" !workload) in
    let self =
      json_obj
        (List.map
           (fun (name, (n, incl, self)) ->
             (name, json_obj [ ("spans", string_of_int n); ("incl_ms", json_num incl); ("self_ms", json_num self) ]))
           (Tracer.summary ()))
    in
    Tracer.export ~path ~extra:[ ("layers", self); ("seed", string_of_int seed) ];
    detail "trace_file" (Printf.sprintf "%S" path)
  end;
  detail "reference_slices"
    (json_obj
       [ ("count", string_of_int (Calib.count ()));
         ("median_ms", json_num (Calib.reference ~t0:0.0 ~t1:infinity));
         ("nominal_ms", json_num Calib.nominal_ms) ]);
  detail "error_rate" (ratio_json (Stats.per_op !failed ~ops:!attempted));
  detail "seed" (string_of_int seed);
  detail "workload" (Printf.sprintf "%S" !workload);
  print_endline (json_obj [ ("details", json_obj (List.rev !details)) ]);
  print_endline
    (json_obj
       [
         ("correct", if !failed = 0 then "true" else "false");
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ( "metrics",
           json_obj
             (List.rev_map
                (fun (name, unit, v) -> (name, json_obj [ ("value", json_num v); ("unit", Printf.sprintf "%S" unit) ]))
                !metrics) );
       ])
