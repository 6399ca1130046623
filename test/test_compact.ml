(* Adaptive block sizing, online compaction and sequential prefetch:
   block-size picking and clamping, in-place reblocking invariants, the
   adaptive-sizing serialization extension (flags bit 3), per-container
   buffer-pool invalidation accounting, sequential read-ahead through
   the pool, the compactor's copy-on-write container swap (including
   under genuinely concurrent serve clients), profile-report
   consumption, and the drift-triggered auto-compaction loop. *)

open Xquec_core
module Obs = Xquec_obs
module Hammer = Xquec_harness.Hammer

let with_fresh_telemetry f =
  Obs.reset ();
  Obs.Watch.set_enabled false;
  Obs.Watch.set_baseline None;
  Obs.Watch.reset ();
  Obs.Alert.set_rules [];
  Storage.Compactor.reset_stats ();
  let finally () =
    Serve.set_auto_compact None;
    Obs.Watch.set_enabled false;
    Obs.Watch.set_baseline None;
    Obs.Watch.reset ();
    Obs.Alert.set_rules [];
    Obs.reset ()
  in
  Fun.protect ~finally (fun () -> Obs.with_enabled f)

(* Compaction mutates the repository, so every test loads its own
   engine from the shared generated document. *)
let xmark_xml = lazy (Xmark.Xmlgen.generate ~scale:0.05 ())
let fresh_engine () = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml)

(* A bigger document for the tests that need low eq selectivity
   (1 match among > 20 candidates) to trip the shrink rule. *)
let xmark_xml_big = lazy (Xmark.Xmlgen.generate ~scale:0.1 ())

let ids_path = "/site/people/person/@id"
let names_path = "/site/people/person/name/#text"

let container_of repo path =
  match Storage.Repository.find_container_by_path repo path with
  | Some c -> c
  | None -> Alcotest.failf "no container with path %s" path

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go k = k + lb <= ls && (String.sub s k lb = sub || go (k + 1)) in
  go 0

(* Run one query and return its serialized result (the bytes a serve
   client would receive, minus the trailing newline). *)
let answer engine q = fst (Engine.query_serialized_logged engine q)

(* ------------------------------------------------------------------ *)
(* Block-size picking                                                  *)
(* ------------------------------------------------------------------ *)

let test_pick_and_clamp () =
  Alcotest.(check int) "clamp floor" 1024 (Storage.Container.clamp_block_size 10);
  Alcotest.(check int) "clamp ceiling" 262144
    (Storage.Container.clamp_block_size 10_000_000);
  Alcotest.(check int) "clamp identity" 8192 (Storage.Container.clamp_block_size 8192);
  let pick access =
    Storage.Container.pick_block_size ~plain_bytes:100_000 ~n_records:1000 ~access
  in
  let seq = pick Storage.Container.Seq_heavy in
  let mixed = pick Storage.Container.Mixed in
  let random = pick Storage.Container.Random_selective in
  Alcotest.(check bool) "scans get larger blocks" true (seq > mixed);
  Alcotest.(check bool) "point lookups get smaller blocks" true (random < mixed);
  Alcotest.(check int) "mixed keeps the default" (Storage.Container.default_block_size ())
    mixed;
  (* very wide records: the 8-records-per-block floor beats the pattern *)
  let wide =
    Storage.Container.pick_block_size ~plain_bytes:1_000_000 ~n_records:10
      ~access:Storage.Container.Random_selective
  in
  Alcotest.(check int) "wide records hit the clamp ceiling" 262144 wide

(* ------------------------------------------------------------------ *)
(* In-place reblocking                                                 *)
(* ------------------------------------------------------------------ *)

let test_reblock_preserves_records () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let c = container_of repo names_path in
  let dump_before = Storage.Container.dump c in
  let blocks_before = Storage.Container.block_count c in
  let gen_before = c.Storage.Container.generation in
  let probe = Storage.Container.compress_constant c (fst (List.hd dump_before)) in
  let hits_before = List.length (Storage.Container.lookup_eq c probe) in
  Storage.Container.reblock c ~block_size:64;
  Alcotest.(check bool) "smaller blocks mean more blocks" true
    (Storage.Container.block_count c > blocks_before);
  Alcotest.(check int) "block_size recorded" 64 c.Storage.Container.block_size;
  Alcotest.(check int) "generation bumped" (gen_before + 1) c.Storage.Container.generation;
  Alcotest.(check int) "reblock keeps the epoch" 0 c.Storage.Container.compaction_epoch;
  Alcotest.(check (list (pair string int))) "record sequence preserved" dump_before
    (Storage.Container.dump c);
  Alcotest.(check int) "lookup_eq unchanged" hits_before
    (List.length (Storage.Container.lookup_eq c probe));
  (* growing back coalesces again *)
  Storage.Container.reblock c ~block_size:1_000_000;
  Alcotest.(check int) "one big block" 1 (Storage.Container.block_count c);
  Alcotest.(check (list (pair string int))) "still the same records" dump_before
    (Storage.Container.dump c)

(* ------------------------------------------------------------------ *)
(* Serialization: the adaptive-sizing extension (flags bit 3)          *)
(* ------------------------------------------------------------------ *)

let test_block_size_epoch_roundtrip () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name" in
  let before = answer engine q in
  (* an untouched repository re-saves without the extension: twice
     through serialize/deserialize is byte-stable *)
  let image0 = Storage.Repository.serialize repo in
  Alcotest.(check string) "default sizes re-save byte-identically"
    (Digest.to_hex (Digest.string image0))
    (Digest.to_hex
       (Digest.string (Storage.Repository.serialize (Storage.Repository.deserialize image0))));
  (* compact one container: block size and epoch must survive the disk *)
  let id = (container_of repo ids_path).Storage.Container.id in
  let r = Storage.Compactor.compact_container repo ~id ~block_size:2048 in
  Alcotest.(check int) "result epoch" 1 r.Storage.Compactor.c_epoch;
  let image1 = Storage.Repository.serialize repo in
  let repo' = Storage.Repository.deserialize image1 in
  let c' = container_of repo' ids_path in
  Alcotest.(check int) "block_size survives save/load" 2048
    c'.Storage.Container.block_size;
  Alcotest.(check int) "compaction_epoch survives save/load" 1
    c'.Storage.Container.compaction_epoch;
  let c_other = container_of repo' names_path in
  Alcotest.(check int) "untouched container keeps the default"
    (Storage.Container.default_block_size ())
    c_other.Storage.Container.block_size;
  Alcotest.(check string) "adaptive image re-saves byte-identically"
    (Digest.to_hex (Digest.string image1))
    (Digest.to_hex (Digest.string (Storage.Repository.serialize repo')));
  let engine' = Engine.restore image1 in
  Alcotest.(check string) "query identical across save/load" before (answer engine' q)

(* ------------------------------------------------------------------ *)
(* Buffer-pool invalidation accounting                                 *)
(* ------------------------------------------------------------------ *)

let test_invalidate_container_accounting () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let c1 = container_of repo ids_path in
  let c2 = container_of repo names_path in
  ignore (Storage.Container.scan c1);
  ignore (Storage.Container.scan c2);
  Alcotest.(check bool) "c2 resident before" true
    (Storage.Buffer_pool.resident ~uid:c2.Storage.Container.uid
       ~gen:c2.Storage.Container.generation ~blk:0);
  Storage.Buffer_pool.reset_stats ();
  let n = Storage.Buffer_pool.invalidate_container ~uid:c1.Storage.Container.uid in
  Alcotest.(check int) "every resident block released"
    (Storage.Container.block_count c1) n;
  let s = Storage.Buffer_pool.snapshot () in
  Alcotest.(check int) "booked as invalidations" n s.Storage.Buffer_pool.s_invalidations;
  Alcotest.(check int) "not booked as capacity evictions" 0
    s.Storage.Buffer_pool.s_evictions;
  Alcotest.(check bool) "c1 no longer resident" false
    (Storage.Buffer_pool.resident ~uid:c1.Storage.Container.uid
       ~gen:c1.Storage.Container.generation ~blk:0);
  Alcotest.(check bool) "other container untouched" true
    (Storage.Buffer_pool.resident ~uid:c2.Storage.Container.uid
       ~gen:c2.Storage.Container.generation ~blk:0);
  Alcotest.(check int) "second invalidation finds nothing" 0
    (Storage.Buffer_pool.invalidate_container ~uid:c1.Storage.Container.uid)

(* ------------------------------------------------------------------ *)
(* Sequential prefetch                                                 *)
(* ------------------------------------------------------------------ *)

let test_sequential_prefetch () =
  with_fresh_telemetry @@ fun () ->
  (* force the inline decode path so the read-ahead pattern (and so the
     hit/miss ledger) is deterministic *)
  let saved_pool = Storage.Domain_pool.size () in
  Storage.Domain_pool.set_size 0;
  let finally () =
    Storage.Container.set_prefetch_depth 0;
    Storage.Domain_pool.set_size saved_pool
  in
  Fun.protect ~finally @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let c = container_of repo names_path in
  (* one record per block: the longest possible sequential run *)
  Storage.Container.reblock c ~block_size:1;
  let nblocks = Storage.Container.block_count c in
  Alcotest.(check bool) "enough blocks to scan through" true (nblocks > 4);
  let walk () =
    Array.init (Storage.Container.length c) (fun i ->
        (Storage.Container.get c i).Storage.Container.code)
  in
  (* control: depth 0 decodes every block on demand *)
  Storage.Container.set_prefetch_depth 0;
  Storage.Buffer_pool.clear ();
  Storage.Buffer_pool.reset_stats ();
  let codes_off = walk () in
  let off = Storage.Buffer_pool.snapshot () in
  Alcotest.(check int) "no read-ahead: one miss per block" nblocks
    off.Storage.Buffer_pool.s_misses;
  Alcotest.(check int) "no read-ahead: no prefetch fills" 0
    off.Storage.Buffer_pool.s_prefetch_fills;
  (* read-ahead: the run is detected at the second block, everything
     after arrives through the prefetch window *)
  Storage.Container.set_prefetch_depth 3;
  Storage.Buffer_pool.clear ();
  Storage.Buffer_pool.reset_stats ();
  let codes_on = walk () in
  let on = Storage.Buffer_pool.snapshot () in
  Alcotest.(check int) "read-ahead: only the first two blocks miss" 2
    on.Storage.Buffer_pool.s_misses;
  Alcotest.(check int) "read-ahead: the rest were prefetched" (nblocks - 2)
    on.Storage.Buffer_pool.s_prefetch_fills;
  Alcotest.(check int) "every prefetched block was then used" (nblocks - 2)
    on.Storage.Buffer_pool.s_prefetch_hits;
  Alcotest.(check bool) "demand misses strictly reduced" true
    (on.Storage.Buffer_pool.s_misses < off.Storage.Buffer_pool.s_misses);
  Alcotest.(check (array string)) "identical records either way" codes_off codes_on

(* ------------------------------------------------------------------ *)
(* Compactor: plan + copy-on-write swap                                *)
(* ------------------------------------------------------------------ *)

let test_compactor_swap_and_plan () =
  with_fresh_telemetry @@ fun () ->
  let saved_pool = Storage.Domain_pool.size () in
  Storage.Domain_pool.set_size 0;
  Fun.protect ~finally:(fun () -> Storage.Domain_pool.set_size saved_pool)
  @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name" in
  let before = answer engine q in
  let old_c = container_of repo ids_path in
  let old_uid = old_c.Storage.Container.uid in
  Storage.Compactor.reset_stats ();
  let r =
    Storage.Compactor.compact_container repo ~id:old_c.Storage.Container.id
      ~block_size:2048
  in
  let fresh = Storage.Repository.container repo old_c.Storage.Container.id in
  Alcotest.(check bool) "swap installed a fresh pool identity" true
    (fresh.Storage.Container.uid <> old_uid);
  Alcotest.(check int) "fresh container epoch" 1
    fresh.Storage.Container.compaction_epoch;
  Alcotest.(check int) "fresh container block size" 2048
    fresh.Storage.Container.block_size;
  Alcotest.(check int) "result records the path change" 2048
    r.Storage.Compactor.c_block_size_after;
  Alcotest.(check string) "result names the container" ids_path
    r.Storage.Compactor.c_path;
  Alcotest.(check string) "query byte-identical after the swap" before (answer engine q);
  Alcotest.(check (list (pair string int))) "old and fresh hold the same records"
    (Storage.Container.dump old_c)
    (Storage.Container.dump fresh);
  let s = Storage.Compactor.snapshot () in
  Alcotest.(check int) "one compaction counted" 1 s.Storage.Compactor.k_compactions;
  (match Storage.Compactor.recent () with
  | newest :: _ ->
    Alcotest.(check string) "recent ring sees it" ids_path newest.Storage.Compactor.c_path
  | [] -> Alcotest.fail "recent ring empty");
  (* plan: keep-factors, unknown paths and no-ops are dropped; real
     factors scale the current size under the clamp *)
  let targets =
    Storage.Compactor.plan repo
      [ (ids_path, 0.25); ("/no/such/container", 0.25); (names_path, 1.0) ]
  in
  Alcotest.(check (list (pair int int))) "plan keeps only the actionable target"
    [ (old_c.Storage.Container.id, 1024) ]
    targets;
  Alcotest.(check bool) "empty request refuses" false
    (Storage.Compactor.request repo ~targets:[]);
  (* sequential pool: the request runs inline and completes before
     returning *)
  Alcotest.(check bool) "request starts" true (Storage.Compactor.request repo ~targets);
  Alcotest.(check bool) "inline request already finished" false (Storage.Compactor.busy ());
  Alcotest.(check int) "requested compaction applied" 1024
    (Storage.Repository.container repo old_c.Storage.Container.id)
      .Storage.Container.block_size;
  Alcotest.(check string) "query still byte-identical" before (answer engine q);
  let status = Obs.Json.to_string (Storage.Compactor.status_json ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("status has " ^ needle) true (contains status needle))
    [ "\"busy\":false"; "\"compactions\":2"; "\"recent\":["; ids_path ]

(* ------------------------------------------------------------------ *)
(* Mid-run reconfigure under concurrent serve clients                  *)
(* ------------------------------------------------------------------ *)

let test_midrun_swap_under_concurrent_clients () =
  with_fresh_telemetry @@ fun () ->
  let engine = fresh_engine () in
  let repo = Engine.repo engine in
  Plan_cache.set_capacity 32;
  Plan_cache.clear ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let query_of client =
    Printf.sprintf
      "document(\"auction.xml\")/site/people/person[@id = \"person%d\"]/name" (client mod 3)
  in
  (* expected bytes per client, computed before any swap *)
  let expected =
    Array.init 3 (fun k ->
        let r = Serve.run_query engine (query_of k) in
        Alcotest.(check int) "warmup status" 200 r.Obs.Expo.status;
        r.Obs.Expo.body)
  in
  let server =
    Obs.Expo.start ~port:0 ~workers:3 ~max_inflight:64 ~extra:(Serve.handler engine)
      ~collect:Serve.publish_pool_metrics ()
  in
  let port = Obs.Expo.port server in
  Fun.protect ~finally:(fun () -> Obs.Expo.stop server)
  @@ fun () ->
  let id = (container_of repo ids_path).Storage.Container.id in
  (* a dedicated domain swapping the container back and forth while the
     clients hammer it *)
  let swapper =
    Domain.spawn (fun () ->
        for i = 1 to 6 do
          let block_size = if i mod 2 = 1 then 2048 else 16384 in
          ignore (Storage.Compactor.compact_container repo ~id ~block_size);
          Unix.sleepf 0.002
        done)
  in
  let outcomes =
    Hammer.drive ~port ~clients:9 ~requests_per_client:6
      ~target:(fun client _seq -> ("POST", "/query", query_of client))
      ()
  in
  Domain.join swapper;
  Alcotest.(check int) "every request answered" (9 * 6) (List.length outcomes);
  List.iter
    (fun (o : Hammer.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "client %d seq %d status" o.Hammer.o_client o.Hammer.o_seq)
        200 o.Hammer.o_reply.Hammer.r_status;
      Alcotest.(check string)
        (Printf.sprintf "client %d seq %d bytes identical across swaps"
           o.Hammer.o_client o.Hammer.o_seq)
        expected.(o.Hammer.o_client mod 3)
        o.Hammer.o_reply.Hammer.r_body)
    outcomes;
  Alcotest.(check int) "six swaps happened" 6
    (Storage.Compactor.snapshot ()).Storage.Compactor.k_compactions;
  Alcotest.(check int) "epoch counted every swap" 6
    (Storage.Repository.container repo id).Storage.Container.compaction_epoch;
  (* the serve surface reports the compactor *)
  let r = Hammer.request ~port "/compact" in
  Alcotest.(check int) "/compact status" 200 r.Hammer.r_status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/compact has " ^ needle) true
        (contains r.Hammer.r_body needle))
    [ "\"busy\":false"; "\"compactions\":6"; ids_path ]

(* ------------------------------------------------------------------ *)
(* Profile-report consumption                                          *)
(* ------------------------------------------------------------------ *)

let test_recommendations_of_report () =
  let report =
    Obs.Json.parse
      {|{"records": 4, "recommendations": [
          {"container": "/a/@id", "action": "shrink", "factor": 0.25, "reason": "x"},
          {"container": "/a/b", "action": "keep", "factor": 1.0, "reason": "y"},
          {"container": "/a/c", "action": "grow", "factor": 4.0, "reason": "z"},
          {"container": "/a/d", "action": "shrink", "factor": -1.0, "reason": "bad"},
          {"action": "grow", "factor": 4.0}]}|}
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "keep, bad factors and malformed entries dropped"
    [ ("/a/@id", 0.25); ("/a/c", 4.0) ]
    (Obs.Profile.recommendations_of_report report);
  Alcotest.(check (list (pair string (float 0.0)))) "no recommendations key" []
    (Obs.Profile.recommendations_of_report (Obs.Json.parse "{}"))

(* ------------------------------------------------------------------ *)
(* Drift-sustained auto-compaction                                     *)
(* ------------------------------------------------------------------ *)

let test_auto_compact_on_sustained_drift () =
  with_fresh_telemetry @@ fun () ->
  let saved_pool = Storage.Domain_pool.size () in
  Storage.Domain_pool.set_size 0;
  Fun.protect ~finally:(fun () -> Storage.Domain_pool.set_size saved_pool)
  @@ fun () ->
  (* the bigger document keeps eq selectivity on @id under the 5 %
     shrink threshold (1 match among ~35 candidates) *)
  let engine = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml_big) in
  let repo = Engine.repo engine in
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person1\"]/name" in
  let before = answer engine q in
  Obs.Watch.set_enabled true;
  Obs.Watch.configure ~window_seconds:3600.0 ~windows:6 ();
  Obs.Alert.set_rules (Serve.default_rules ~drift_threshold:0.3 ());
  Serve.set_auto_compact (Some repo);
  Serve.watch_tick_reset ();
  (* declared mix: scans elsewhere; observed mix: pure selective point
     lookups on @id — maximal drift, low selectivity *)
  Obs.Watch.set_baseline
    (Some
       (Workload.fingerprint repo
          (Workload.of_query_strings repo
             [ "for $i in document(\"auction.xml\")/site/regions/europe/item return $i/name" ])));
  for k = 0 to 4 do
    ignore
      (answer engine
         (Printf.sprintf
            "document(\"auction.xml\")/site/people/person[@id = \"person%d\"]/name" k))
  done;
  let now = Unix.gettimeofday () in
  let fired = ref false in
  for i = 1 to 3 do
    let _, trs = Serve.watch_tick ~now:(now +. float_of_int i) () in
    if
      List.exists
        (fun (t : Obs.Alert.transition) ->
          t.Obs.Alert.t_rule = "drift_sustained" && t.Obs.Alert.t_event = "fired")
        trs
    then fired := true
  done;
  Alcotest.(check bool) "drift_sustained fired" true !fired;
  (* the hook planned a shrink for the point-lookup container and ran
     it inline (sequential pool) *)
  let c = container_of repo ids_path in
  Alcotest.(check int) "auto-compaction shrank the hot container"
    (Storage.Container.clamp_block_size (Storage.Container.default_block_size () / 4))
    c.Storage.Container.block_size;
  Alcotest.(check int) "exactly one compaction epoch" 1
    c.Storage.Container.compaction_epoch;
  Alcotest.(check bool) "trigger counter bumped" true
    (Obs.Metrics.counter_value "serve.compactions_triggered" >= 1);
  Alcotest.(check string) "query byte-identical after the auto swap" before
    (answer engine q)

let suites =
  [
    ( "compact",
      [
        Alcotest.test_case "block-size pick + clamp." `Quick test_pick_and_clamp;
        Alcotest.test_case "reblock preserves records." `Quick
          test_reblock_preserves_records;
        Alcotest.test_case "block size + epoch round-trip." `Quick
          test_block_size_epoch_roundtrip;
        Alcotest.test_case "invalidate_container accounting." `Quick
          test_invalidate_container_accounting;
        Alcotest.test_case "sequential prefetch." `Quick test_sequential_prefetch;
        Alcotest.test_case "compactor swap + plan." `Quick test_compactor_swap_and_plan;
        Alcotest.test_case "mid-run swap under concurrent clients." `Quick
          test_midrun_swap_under_concurrent_clients;
        Alcotest.test_case "profile report consumption." `Quick
          test_recommendations_of_report;
        Alcotest.test_case "auto-compact on sustained drift." `Quick
          test_auto_compact_on_sustained_drift;
      ] );
  ]
