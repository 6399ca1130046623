(* Command-line interface to XQueC: compress / decompress / query /
   inspect, plus the synthetic document generators. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Workload files come from all sorts of editors: tolerate a UTF-8 byte
   order mark and CRLF line endings. *)
let strip_bom s =
  if String.length s >= 3 && String.sub s 0 3 = "\xef\xbb\xbf" then
    String.sub s 3 (String.length s - 3)
  else s

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_workload = function
  | None -> None
  | Some path ->
    (* one query per stanza; stanzas separated by lines containing ';;' *)
    let body = strip_bom (read_file path) in
    let stanzas =
      String.split_on_char '\n' body
      |> List.map strip_cr
      |> List.fold_left
           (fun (acc, cur) line ->
             if String.trim line = ";;" then (List.rev cur :: acc, [])
             else (acc, line :: cur))
           ([], [])
      |> fun (acc, cur) -> List.rev (List.rev cur :: acc)
    in
    let queries =
      List.filter_map
        (fun lines ->
          let q = String.trim (String.concat "\n" lines) in
          if q = "" then None else Some q)
        stanzas
    in
    if queries = [] then None else Some queries

(* --- telemetry options (shared by compress / query / explain) ------- *)

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Collect telemetry and dump the metrics registry (counters, gauges, \
              histograms) to stderr when the command finishes.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Collect telemetry and write the recorded spans as chrome-trace JSON to \
              $(docv) (open in chrome://tracing or ui.perfetto.dev).")

let cache_mb =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:"Byte budget of the shared buffer pool that caches decoded container \
              blocks, in MiB (default 64). 0 effectively disables caching: every \
              block access beyond the most recent one decodes again.")

let decode_domains =
  Arg.(
    value
    & opt (some int) None
    & info [ "decode-domains" ] ~docv:"N"
        ~doc:"Number of worker domains decoding container blocks in parallel. 0 forces \
              the sequential path (byte-identical to the pre-parallel engine); the \
              default is one worker per spare core, or \\$XQUEC_DECODE_DOMAINS when \
              set.")

let prefetch =
  Arg.(
    value
    & opt (some int) None
    & info [ "prefetch" ] ~docv:"N"
        ~doc:"Sequential read-ahead depth: when consecutive blocks of one container are \
              touched in order, decode the next $(docv) blocks in the background (on the \
              decode pool) before the cursor reaches them. 0 disables read-ahead. \
              Default 0 for one-shot commands, 4 under $(b,serve).")

let query_log =
  Arg.(
    value
    & opt (some string) None
    & info [ "query-log" ] ~docv:"FILE"
        ~doc:"Append one JSONL record per query to $(docv): query hash, plan shape, \
              wall/CPU time, per-operator cardinalities, bytes decoded vs. pruned, \
              buffer-pool and decode-pool activity, GC allocation (schema in \
              docs/OBSERVABILITY.md). \\$XQUEC_QUERY_LOG sets a process-wide default.")

let buffer_pool_summary () =
  let s = Storage.Buffer_pool.snapshot () in
  let p = Storage.Domain_pool.snapshot () in
  Printf.sprintf
    "buffer pool: %d hits / %d misses / %d latch waits / %d evictions; %d blocks pruned; %d scan inserts; %d B decoded (payload %d B decoded / %d B pruned); %d B resident in %d blocks (budget %d B)\n\
     decode pool: %d domains; %d batches / %d tasks (%d inline); max queue depth %d; %.1f ms parallel-decode wall\n"
    s.Storage.Buffer_pool.s_hits s.Storage.Buffer_pool.s_misses
    s.Storage.Buffer_pool.s_latch_waits s.Storage.Buffer_pool.s_evictions
    s.Storage.Buffer_pool.s_blocks_skipped s.Storage.Buffer_pool.s_scan_inserts
    s.Storage.Buffer_pool.s_decoded_bytes s.Storage.Buffer_pool.s_payload_bytes
    s.Storage.Buffer_pool.s_skipped_bytes s.Storage.Buffer_pool.s_resident_bytes
    s.Storage.Buffer_pool.s_resident_blocks
    (Storage.Buffer_pool.budget_bytes ())
    p.Storage.Domain_pool.p_domains p.Storage.Domain_pool.p_batches
    p.Storage.Domain_pool.p_tasks p.Storage.Domain_pool.p_inline
    p.Storage.Domain_pool.p_max_queue_depth p.Storage.Domain_pool.p_wall_ms
  ^ (let j = Xquec_core.Executor.join_stats () in
     if j.Xquec_core.Executor.j_block_joins = 0 then ""
     else
       Printf.sprintf
         "block join: %d joins; %d blocks probed / %d skipped from headers (%d B never decoded)\n"
         j.Xquec_core.Executor.j_block_joins j.Xquec_core.Executor.j_blocks_probed
         j.Xquec_core.Executor.j_blocks_skipped j.Xquec_core.Executor.j_skipped_bytes)
  ^
  (* container heat: the hottest containers by block touches *)
  let heat =
    Xquec_obs.Heat.snapshot ()
    |> List.filter (fun (h : Xquec_obs.Heat.stat) -> h.Xquec_obs.Heat.touches > 0)
    |> List.sort (fun (a : Xquec_obs.Heat.stat) b ->
           compare b.Xquec_obs.Heat.touches a.Xquec_obs.Heat.touches)
  in
  if heat = [] then ""
  else
    "container heat (top 5 by block touches):\n"
    ^ String.concat ""
        (List.filteri (fun i _ -> i < 5) heat
        |> List.map (fun (h : Xquec_obs.Heat.stat) ->
               Printf.sprintf
                 "  %-48s %d touches (%d decodes / %d hits); %d skipped; %d B decoded / %d B pruned\n"
                 h.Xquec_obs.Heat.label h.Xquec_obs.Heat.touches h.Xquec_obs.Heat.decodes
                 h.Xquec_obs.Heat.hits h.Xquec_obs.Heat.header_skips
                 h.Xquec_obs.Heat.bytes_decoded h.Xquec_obs.Heat.bytes_skipped))

let with_telemetry ~stats ~trace_out ?cache_mb ?decode_domains ?query_log f =
  if stats || trace_out <> None then Xquec_obs.set_enabled true;
  (match query_log with
  | Some file -> Xquec_obs.Query_log.set_path (Some file)
  | None -> ());
  (match cache_mb with
  | Some mb -> Storage.Buffer_pool.set_budget ~bytes:(mb * 1024 * 1024)
  | None -> ());
  (match decode_domains with
  | Some n -> Storage.Domain_pool.set_size n
  | None -> ());
  let finish () =
    (match trace_out with
    | Some path ->
      Xquec_obs.Trace.export path;
      Fmt.epr "wrote %d spans to %s@." (List.length (Xquec_obs.Trace.spans ())) path
    | None -> ());
    if stats then begin
      prerr_string (Xquec_obs.Metrics.dump_text ());
      prerr_string (buffer_pool_summary ())
    end
  in
  Fun.protect ~finally:finish f

(* A repository argument that also accepts raw XML: sniff the first
   non-whitespace byte — documents start with '<', serialized
   repositories never do. Returns the engine plus the input's format
   string ("v4" from the XQC magic, "v1" for magicless repositories,
   "xml" for a document compressed on the fly) for /healthz. *)
let load_engine_any_with_format path =
  let data = strip_bom (read_file path) in
  let rec first_nonspace i =
    if i >= String.length data then None
    else
      match data.[i] with
      | ' ' | '\t' | '\r' | '\n' -> first_nonspace (i + 1)
      | c -> Some c
  in
  if first_nonspace 0 = Some '<' then
    (Xquec_core.Engine.load ~name:(Filename.basename path) data, "xml")
  else if String.length data >= 4 && String.sub data 0 3 = "XQC" then
    (Xquec_core.Engine.restore data, Printf.sprintf "v%d" (Char.code data.[3]))
  else (Xquec_core.Engine.restore data, "v1")

let load_engine_any path = fst (load_engine_any_with_format path)

(* --- compress ------------------------------------------------------- *)

let compress_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.xml") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.xqc")
  in
  let workload =
    Arg.(
      value
      & opt (some file) None
      & info [ "w"; "workload" ] ~docv:"QUERIES"
          ~doc:"File of XQuery queries (separated by lines containing ';;') used to choose \
                the compression configuration (paper §3).")
  in
  let adaptive_blocks =
    Arg.(
      value & flag
      & info [ "adaptive-blocks" ]
          ~doc:"Per-container block sizing from the declared workload (requires \
                $(b,--workload)): containers dominated by wildcard scans get larger \
                blocks, containers dominated by equality point lookups get smaller \
                ones. Without this flag every container keeps the global block size.")
  in
  let blocks_from =
    Arg.(
      value
      & opt (some file) None
      & info [ "blocks-from" ] ~docv:"PROFILE.json"
          ~doc:"Seed per-container block sizes from a committed $(b,xquec profile \
                --json) report: its block-size recommendations are applied to the \
                freshly built repository before it is written.")
  in
  let run input output workload adaptive_blocks blocks_from stats trace_out =
    with_telemetry ~stats ~trace_out @@ fun () ->
    let xml = read_file input in
    let name = Filename.basename input in
    let workload_queries = read_workload workload in
    let engine = Xquec_core.Engine.load ~name ?workload:workload_queries xml in
    let repo = Xquec_core.Engine.repo engine in
    (if adaptive_blocks then
       match workload_queries with
       | None ->
         Fmt.epr "xquec compress: --adaptive-blocks needs --workload; ignoring@."
       | Some queries ->
         let wl = Xquec_core.Workload.of_query_strings repo queries in
         List.iter
           (fun (path, before, after) ->
             Fmt.pr "adaptive blocks: %s %d -> %d@." path before after)
           (Xquec_core.Partitioner.size_blocks repo wl));
    (match blocks_from with
    | None -> ()
    | Some file ->
      let report = Xquec_obs.Json.parse (strip_bom (read_file file)) in
      let recs = Xquec_obs.Profile.recommendations_of_report report in
      let targets = Storage.Compactor.plan repo recs in
      List.iter
        (fun (r : Storage.Compactor.result) ->
          Fmt.pr "profile blocks: %s %d -> %d (%d -> %d blocks)@."
            r.Storage.Compactor.c_path r.Storage.Compactor.c_block_size_before
            r.Storage.Compactor.c_block_size_after r.Storage.Compactor.c_blocks_before
            r.Storage.Compactor.c_blocks_after)
        (Storage.Compactor.compact repo ~targets));
    let out = Option.value ~default:(input ^ ".xqc") output in
    write_file out (Xquec_core.Engine.save engine);
    let sz = Xquec_core.Engine.size_breakdown engine in
    Fmt.pr "%s: %d bytes -> %d bytes (compression factor %.2f%%)@." input
      (String.length xml) sz.Storage.Repository.total_bytes
      (100.0 *. Xquec_core.Engine.compression_factor engine);
    (match engine.Xquec_core.Engine.partitioning with
    | Some r ->
      Fmt.pr "workload-driven configuration: cost %.0f -> %.0f over %d sets@."
        r.Xquec_core.Partitioner.initial_cost r.Xquec_core.Partitioner.final_cost
        (List.length r.Xquec_core.Partitioner.configuration.Xquec_core.Cost_model.sets)
    | None -> ());
    Fmt.pr "wrote %s@." out
  in
  Cmd.v (Cmd.info "compress" ~doc:"Compress an XML document into a queryable repository")
    Term.(
      const run $ input $ output $ workload $ adaptive_blocks $ blocks_from
      $ stats_flag $ trace_out)

(* --- decompress ----------------------------------------------------- *)

let decompress_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.xqc") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.xml") in
  let run input output =
    let engine = Xquec_core.Engine.restore (read_file input) in
    let xml = Xquec_core.Engine.to_xml engine in
    match output with
    | Some out ->
      write_file out xml;
      Fmt.pr "wrote %s (%d bytes)@." out (String.length xml)
    | None -> print_string xml
  in
  Cmd.v (Cmd.info "decompress" ~doc:"Reconstruct the XML document from a repository")
    Term.(const run $ input $ output)

(* --- query ---------------------------------------------------------- *)

let query_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.xqc") in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"XQUERY") in
  let timing = Arg.(value & flag & info [ "t"; "time" ] ~doc:"Print the evaluation time.") in
  let run input query timing stats trace_out cache_mb decode_domains query_log prefetch =
    with_telemetry ~stats ~trace_out ?cache_mb ?decode_domains ?query_log @@ fun () ->
    Option.iter Storage.Container.set_prefetch_depth prefetch;
    let engine = load_engine_any input in
    let t0 = Unix.gettimeofday () in
    let result, _prof = Xquec_core.Engine.query_serialized_logged engine query in
    let dt = Unix.gettimeofday () -. t0 in
    print_endline result;
    if timing then Fmt.epr "query evaluated in %.1f ms@." (1000.0 *. dt)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Evaluate an XQuery expression over a compressed repository (results are \
             decompressed only for output)")
    Term.(
      const run $ input $ query $ timing $ stats_flag $ trace_out $ cache_mb
      $ decode_domains $ query_log $ prefetch)

(* --- explain -------------------------------------------------------- *)

let explain_cmd =
  let input =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT"
         (* .xqc repository or raw .xml *))
  in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"XQUERY") in
  let plan_only =
    Arg.(
      value & flag
      & info [ "plan-only" ]
          ~doc:"Only analyze the strategy (the classic EXPLAIN); do not evaluate the \
                query or print the profiled plan.")
  in
  let run input query plan_only stats trace_out cache_mb decode_domains query_log =
    with_telemetry ~stats ~trace_out ?cache_mb ?decode_domains ?query_log @@ fun () ->
    let engine = load_engine_any input in
    let repo = Xquec_core.Engine.repo engine in
    if plan_only then print_endline (Xquec_core.Optimizer.explain_string repo query)
    else begin
      (* Route through the logged evaluation path so `explain --query-log`
         appends the same one-record-per-query accounting as `query`. *)
      let _out, prof = Xquec_core.Engine.query_serialized_logged engine query in
      print_string (Xquec_core.Optimizer.render_profiled repo query prof)
    end
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"EXPLAIN ANALYZE a query: the evaluation strategy (summary accesses, \
             compressed-domain pushdowns, join methods, decorrelations) plus the \
             profiled physical plan with per-operator wall time, cardinalities, \
             compressed vs. decompressed predicate counts, and per-operator buffer-pool \
             activity (hits, misses, latch waits, pruned blocks, bytes decoded). INPUT \
             may be a compressed repository or a raw XML document.")
    Term.(
      const run $ input $ query $ plan_only $ stats_flag $ trace_out $ cache_mb
      $ decode_domains $ query_log)

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT") in
  let port =
    Arg.(
      value & opt int 9464
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks a free port; the bound port is printed \
                on startup).")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind (default loopback only).")
  in
  let serve_workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "serve-workers" ] ~docv:"N"
          ~doc:"Connection-handling worker domains. Default: available cores minus one \
                (at least 1). 0 reverts to the sequential accept loop (one request at \
                a time on the accept domain).")
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Admission gate: connections beyond N accepted-but-unfinished requests \
                are shed immediately with 503 and Retry-After. 0 = unlimited.")
  in
  let query_wall_ms =
    Arg.(
      value & opt float 0.0
      & info [ "query-wall-ms" ] ~docv:"MS"
          ~doc:"Per-query wall-clock budget in milliseconds; a query still decoding \
                blocks past it is terminated with 408 and a structured error body. \
                0 = unlimited.")
  in
  let query_decode_mb =
    Arg.(
      value & opt float 0.0
      & info [ "query-decode-mb" ] ~docv:"MB"
          ~doc:"Per-query decoded-bytes budget in MiB (decompressed block bytes \
                charged as they leave the codecs); exceeded queries are terminated \
                with 408. 0 = unlimited.")
  in
  let plan_cache =
    Arg.(
      value & opt int 128
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"LRU plan-cache capacity in entries, keyed by the MD5 hash of the query \
                text; repeated queries skip the parse. 0 disables the cache.")
  in
  let watch_window =
    Arg.(
      value & opt float 10.0
      & info [ "watch-window" ] ~docv:"SECONDS"
          ~doc:"Drift-watchdog window length in seconds: the streaming workload \
                fingerprint rolls over a ring of recent windows, and the alert rules \
                are evaluated once per window. 0 disables the watchdog.")
  in
  let drift_alert =
    Arg.(
      value & opt float 0.3
      & info [ "drift-alert" ] ~docv:"SCORE"
          ~doc:"Total-variation drift threshold (0..1) for the $(b,drift_sustained) \
                alert: fires after the observed mix stays further than this from the \
                declared workload for 3 consecutive windows.")
  in
  let alerts_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts-log" ] ~docv:"FILE"
          ~doc:"Append one JSON line per alert firing/resolving transition to FILE \
                (created if missing).")
  in
  let serve_workload =
    Arg.(
      value
      & opt (some file) None
      & info [ "w"; "workload" ] ~docv:"QUERIES"
          ~doc:"File of XQuery queries (separated by lines containing ';;') declaring \
                the workload the repository was tuned for; the watchdog scores live \
                drift against its fingerprint. Without it the watchdog still tracks \
                the rolling fingerprint but computes no drift.")
  in
  let no_auto_compact =
    Arg.(
      value & flag
      & info [ "no-auto-compact" ]
          ~doc:"Do not start a background re-compaction when the \
                $(b,drift_sustained) alert fires. By default a sustained drift \
                turns the live fingerprint into block-size advice and re-blocks \
                the affected containers online (copy-on-write swap; queries keep \
                flowing). GET /compact reports either way.")
  in
  let run input port host serve_workers max_inflight query_wall_ms query_decode_mb
      plan_cache watch_window drift_alert alerts_log serve_workload no_auto_compact
      cache_mb decode_domains query_log prefetch =
    with_telemetry ~stats:false ~trace_out:None ?cache_mb ?decode_domains ?query_log
    @@ fun () ->
    (* metrics + spans always on under serve: the endpoint exists to be scraped *)
    Xquec_obs.set_enabled true;
    (* read-ahead on by default for a long-lived server; --prefetch 0 disables *)
    Storage.Container.set_prefetch_depth (Option.value ~default:4 prefetch);
    let workers =
      match serve_workers with
      | Some n -> max 0 n
      | None -> max 1 (Domain.recommended_domain_count () - 1)
    in
    Xquec_core.Plan_cache.set_capacity plan_cache;
    Xquec_core.Serve.set_budgets ~wall_ms:query_wall_ms
      ~decode_bytes:(int_of_float (query_decode_mb *. 1024.0 *. 1024.0))
      ();
    let engine, format = load_engine_any_with_format input in
    Xquec_core.Serve.set_server_info ~format ();
    Xquec_core.Serve.set_auto_compact
      (if no_auto_compact then None else Some (Xquec_core.Engine.repo engine));
    (* declared build-time mix: re-analyze the workload queries against
       the served repository (the on-disk format does not retain the
       workload the repository was compressed under) *)
    let baseline =
      match read_workload serve_workload with
      | Some queries ->
        let repo = Xquec_core.Engine.repo engine in
        Some
          (Xquec_core.Workload.fingerprint repo
             (Xquec_core.Workload.of_query_strings repo queries))
      | None -> None
    in
    let watch_on = watch_window > 0.0 in
    if watch_on then begin
      Xquec_obs.Watch.configure ~window_seconds:watch_window ();
      Xquec_obs.Watch.set_baseline baseline;
      Xquec_obs.Watch.set_enabled true;
      Xquec_obs.Alert.set_rules
        (Xquec_core.Serve.default_rules ~drift_threshold:drift_alert ());
      Xquec_obs.Alert.set_log alerts_log;
      Xquec_core.Serve.start_watchdog ~period:watch_window ()
    end;
    let server =
      Xquec_obs.Expo.start ~host ~port ~workers ~max_inflight
        ~extra:(Xquec_core.Serve.handler engine)
        ~collect:Xquec_core.Serve.publish_pool_metrics ()
    in
    Fmt.pr
      "xquec serve: listening on http://%s:%d (endpoints: /metrics /healthz /query /stats \
       /heat /watch /alerts /compact)@."
      host (Xquec_obs.Expo.port server);
    Fmt.pr
      "xquec serve: %d worker(s), max-inflight %s, plan cache %s, budgets wall %s decode %s@."
      workers
      (if max_inflight > 0 then string_of_int max_inflight else "unlimited")
      (if plan_cache > 0 then Fmt.str "%d entries" plan_cache else "off")
      (if query_wall_ms > 0.0 then Fmt.str "%.0fms" query_wall_ms else "off")
      (if query_decode_mb > 0.0 then Fmt.str "%.1fMiB" query_decode_mb else "off");
    if watch_on then
      Fmt.pr "xquec serve: watchdog window %.1fs, drift alert > %.2f%s, baseline %s@."
        watch_window drift_alert
        (match alerts_log with Some f -> Fmt.str ", alert log %s" f | None -> "")
        (if baseline <> None then "declared" else "none");
    Xquec_obs.Expo.wait server;
    if watch_on then Xquec_core.Serve.stop_watchdog ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a repository over HTTP: POST /query (or GET /query?q=...) evaluates \
             XQuery; GET /metrics exposes the counters, gauges, and histograms in \
             Prometheus text format (buffer-pool, decode-pool, per-container, \
             admission, plan-cache, watchdog, and per-query series); GET /healthz \
             (readiness JSON) and GET /stats (JSON) for probes and debugging; GET /watch \
             and GET /alerts surface the streaming drift watchdog. Connections fan out \
             onto a worker-domain pool with accept-time admission control, per-query \
             wall/decode budgets, and an LRU plan cache; GET /compact reports the \
             background compactor that re-blocks drifted containers online — see \
             docs/SERVING.md for the operator guide.")
    Term.(
      const run $ input $ port $ host $ serve_workers $ max_inflight $ query_wall_ms
      $ query_decode_mb $ plan_cache $ watch_window $ drift_alert $ alerts_log
      $ serve_workload $ no_auto_compact $ cache_mb $ decode_domains $ query_log
      $ prefetch)

(* --- compact ---------------------------------------------------------- *)

let compact_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.xqc") in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.xqc"
          ~doc:"Where to write the re-blocked repository (default: rewrite INPUT in \
                place).")
  in
  let profile =
    Arg.(
      value
      & opt (some file) None
      & info [ "profile" ] ~docv:"PROFILE.json"
          ~doc:"An $(b,xquec profile --json) report: its block-size recommendations \
                pick the containers and target sizes.")
  in
  let container =
    Arg.(
      value
      & opt (some string) None
      & info [ "container" ] ~docv:"PATH"
          ~doc:"Re-block only the container with this assignment path (requires \
                $(b,--block-size)).")
  in
  let block_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "block-size" ] ~docv:"BYTES"
          ~doc:"Target block size in plain-text bytes (clamped to the supported \
                range). Alone it re-blocks every non-empty container; with \
                $(b,--container) only that one.")
  in
  let run input output profile container block_size stats trace_out =
    with_telemetry ~stats ~trace_out @@ fun () ->
    let engine = load_engine_any input in
    let repo = Xquec_core.Engine.repo engine in
    let targets =
      match (profile, (container, block_size)) with
      | Some _, (Some _, _ | _, Some _) ->
        Fmt.epr "xquec compact: --profile cannot be combined with --container / \
                 --block-size@.";
        exit 2
      | Some file, (None, None) ->
        let report = Xquec_obs.Json.parse (strip_bom (read_file file)) in
        Storage.Compactor.plan repo (Xquec_obs.Profile.recommendations_of_report report)
      | None, (Some path, Some size) -> (
        match Storage.Repository.find_container_by_path repo path with
        | Some c -> [ (c.Storage.Container.id, size) ]
        | None ->
          Fmt.epr "xquec compact: no container with path %s@." path;
          exit 1)
      | None, (Some _, None) ->
        Fmt.epr "xquec compact: --container requires --block-size@.";
        exit 2
      | None, (None, Some size) ->
        Array.to_list repo.Storage.Repository.containers
        |> List.filter_map (fun (c : Storage.Container.t) ->
               if c.Storage.Container.n_records = 0 then None
               else Some (c.Storage.Container.id, size))
      | None, (None, None) ->
        Fmt.epr "xquec compact: nothing to do — pass --profile, or --block-size \
                 (optionally with --container)@.";
        exit 2
    in
    let results = Storage.Compactor.compact repo ~targets in
    if results = [] then Fmt.pr "nothing to re-block (all targets were no-ops)@."
    else
      List.iter
        (fun (r : Storage.Compactor.result) ->
          Fmt.pr "%-48s %7d B -> %7d B  (%d -> %d blocks, %d records, epoch %d, %.1f ms)@."
            r.Storage.Compactor.c_path r.Storage.Compactor.c_block_size_before
            r.Storage.Compactor.c_block_size_after r.Storage.Compactor.c_blocks_before
            r.Storage.Compactor.c_blocks_after r.Storage.Compactor.c_records
            r.Storage.Compactor.c_epoch r.Storage.Compactor.c_wall_ms)
        results;
    let out = Option.value ~default:input output in
    write_file out (Xquec_core.Engine.save engine);
    Fmt.pr "wrote %s@." out
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Re-block a repository's value containers toward profiled block sizes: \
             either apply the recommendations of an $(b,xquec profile --json) report \
             (--profile) or force an explicit size (--block-size, optionally scoped by \
             --container). Record order, compression algorithms and query results are \
             unchanged — only the block boundaries (and so header pruning granularity \
             and decode batch size) move.")
    Term.(
      const run $ input $ output $ profile $ container $ block_size $ stats_flag
      $ trace_out)

(* --- profile --------------------------------------------------------- *)

let profile_cmd =
  let logs = Arg.(non_empty & pos_all file [] & info [] ~docv:"QUERY_LOG.jsonl") in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"LOG"
          ~doc:"A second query log to compare against: the report gains a drift score \
                (total variation distance between the two workload fingerprints, 0 = \
                identical mix, 1 = disjoint).")
  in
  let heat =
    Arg.(
      value
      & opt (some file) None
      & info [ "heat" ] ~docv:"FILE"
          ~doc:"A heat snapshot (the GET /heat payload) joined into the block-size \
                recommendations: sequential-vs-random access patterns refine the \
                per-container advice.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON instead of a table.")
  in
  let run logs baseline heat json =
    let records = List.concat_map Xquec_obs.Profile.load_jsonl logs in
    if records = [] then begin
      Fmt.epr "xquec profile: no query-log records in %s@." (String.concat ", " logs);
      exit 1
    end;
    let fp = Xquec_obs.Profile.of_records records in
    let baseline =
      Option.map
        (fun file -> Xquec_obs.Profile.of_records (Xquec_obs.Profile.load_jsonl file))
        baseline
    in
    let heat =
      Option.map (fun file -> Xquec_obs.Json.parse (strip_bom (read_file file))) heat
    in
    if json then
      print_endline (Xquec_obs.Json.to_string (Xquec_obs.Profile.report_json ?baseline ?heat fp))
    else print_string (Xquec_obs.Profile.render ?baseline ?heat fp)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Aggregate one or more JSONL query logs (from --query-log / \
             \\$XQUEC_QUERY_LOG) into a workload fingerprint: per-container predicate \
             mix (eq/range/wild/exists/join), observed selectivity, decode volume, and \
             per-container block-size recommendations. With --baseline, also a drift \
             score between the two workloads; with --heat, access patterns from a heat \
             snapshot refine the recommendations.")
    Term.(const run $ logs $ baseline $ heat $ json)

(* --- stats ---------------------------------------------------------- *)

let stats_cmd =
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.xqc") in
  let run input =
    let data = read_file input in
    let engine = Xquec_core.Engine.restore data in
    let repo = Xquec_core.Engine.repo engine in
    let sz = Xquec_core.Engine.size_breakdown engine in
    let format =
      if String.length data >= 4 && String.sub data 0 3 = "XQC" then
        Printf.sprintf "v%d (magic XQC\\x%02x)" (Char.code data.[3]) (Char.code data.[3])
      else "v1 (no magic)"
    in
    Fmt.pr "source:              %s (%d bytes)@." repo.Storage.Repository.source_name
      repo.Storage.Repository.original_size;
    Fmt.pr "format:              %s@." format;
    Fmt.pr "compression factor:  %.2f%%@." (100.0 *. Xquec_core.Engine.compression_factor engine);
    Fmt.pr "structure tree:      %d bytes (%d nodes)@." sz.Storage.Repository.tree_bytes
      (Storage.Structure_tree.node_count repo.Storage.Repository.tree);
    Fmt.pr "value containers:    %d bytes (%d containers)@."
      sz.Storage.Repository.containers_bytes
      (Array.length repo.Storage.Repository.containers);
    Fmt.pr "source models:       %d bytes@." sz.Storage.Repository.models_bytes;
    Fmt.pr "structure summary:   %d bytes (%d paths)@." sz.Storage.Repository.summary_bytes
      (Storage.Summary.node_count repo.Storage.Repository.summary);
    Fmt.pr "nav directories:     %d bytes@." sz.Storage.Repository.index_bytes;
    Fmt.pr "name dictionary:     %d bytes (%d names, %d bits/code)@."
      sz.Storage.Repository.name_dict_bytes
      (Storage.Name_dict.size repo.Storage.Repository.dict)
      (Storage.Name_dict.bits_per_code repo.Storage.Repository.dict);
    Fmt.pr "containers by algorithm:@.";
    let by_alg = Hashtbl.create 8 in
    Array.iter
      (fun (c : Storage.Container.t) ->
        let k = Compress.Codec.algorithm_name c.Storage.Container.algorithm in
        Hashtbl.replace by_alg k (1 + Option.value ~default:0 (Hashtbl.find_opt by_alg k)))
      repo.Storage.Repository.containers;
    Hashtbl.iter (fun k v -> Fmt.pr "  %-10s %d@." k v) by_alg
  in
  Cmd.v (Cmd.info "stats" ~doc:"Show the storage breakdown of a repository")
    Term.(const run $ input)

(* --- generate ------------------------------------------------------- *)

let generate_cmd =
  let dataset =
    Arg.(
      value
      & opt (enum [ ("xmark", `Xmark); ("shakespeare", `Shak); ("course", `Course); ("baseball", `Base) ]) `Xmark
      & info [ "d"; "dataset" ] ~docv:"KIND")
  in
  let scale = Arg.(value & opt float 1.0 & info [ "s"; "scale" ] ~docv:"SCALE") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ]) in
  let output = Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT.xml") in
  let run dataset scale seed output =
    let xml =
      match dataset with
      | `Xmark -> Xmark.Xmlgen.generate ~seed ~scale ()
      | `Shak -> Xmark.Datasets.shakespeare ~seed ~scale ()
      | `Course -> Xmark.Datasets.course ~seed ~scale ()
      | `Base -> Xmark.Datasets.baseball ~seed ~scale ()
    in
    write_file output xml;
    Fmt.pr "wrote %s (%d bytes)@." output (String.length xml)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a synthetic benchmark document")
    Term.(const run $ dataset $ scale $ seed $ output)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "xquec" ~version:"1.0.0"
             ~doc:"XQueC: an XQuery processor and compressor (EDBT 2004 reproduction)")
          [
            compress_cmd; decompress_cmd; query_cmd; explain_cmd; stats_cmd; serve_cmd;
            compact_cmd; profile_cmd; generate_cmd;
          ]))
