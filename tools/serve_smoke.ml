(* Serving smoke check (`make serve-smoke`): start the real `xquec
   serve` binary against a small repository, fire a burst of concurrent
   requests at it through Xquec_harness.Hammer (the curl-equivalent),
   replay a shifted query mix until the drift watchdog raises
   [drift_sustained] on /alerts and in the alert log, and assert a
   clean shutdown on SIGTERM. This is the one place the whole serving
   stack — CLI flag parsing, worker fan-out, admission, plan cache,
   metrics endpoints, watchdog ticker, signal-driven teardown — runs as
   an operator would run it, process boundary included.

     serve_smoke XQUEC_EXE INPUT.xqc

   Exit 0 on success; nonzero with a message on the first failed
   assertion. *)

module Hammer = Xquec_harness.Hammer

let die fmt = Fmt.kstr (fun s -> prerr_endline ("serve_smoke: " ^ s); exit 1) fmt

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let () =
  let exe, input =
    match Sys.argv with
    | [| _; exe; input |] -> (exe, input)
    | _ -> die "usage: serve_smoke XQUEC_EXE INPUT.xqc"
  in
  (* declared workload: the same point query the burst replays, so the
     watchdog sees drift ~0 until the shifted phase starts *)
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" in
  let workload_file = Filename.temp_file "serve_smoke_workload" ".xq" in
  let alerts_log = Filename.temp_file "serve_smoke_alerts" ".jsonl" in
  let oc = open_out workload_file in
  output_string oc (q ^ "\n");
  close_out oc;
  (* port 0: the server picks a free port and prints it; modest worker
     and admission settings so the flags themselves are exercised; a
     sub-second watch window so the drift alert can fire within the
     smoke budget *)
  let argv =
    [|
      exe; "serve"; input; "-p"; "0"; "--serve-workers"; "2"; "--max-inflight"; "32";
      "--plan-cache"; "16"; "--watch-window"; "0.2"; "--drift-alert"; "0.5";
      "--alerts-log"; alerts_log; "-w"; workload_file;
    |]
  in
  let out_read, out_write = Unix.pipe () in
  let pid = Unix.create_process exe argv Unix.stdin out_write Unix.stderr in
  Unix.close out_write;
  let ic = Unix.in_channel_of_descr out_read in
  (* first line announces the bound port:
     "xquec serve: listening on http://127.0.0.1:NNNN (endpoints: ...)" *)
  let port =
    let deadline = Unix.gettimeofday () +. 30.0 in
    let rec find () =
      if Unix.gettimeofday () > deadline then die "server did not announce a port in 30s";
      match input_line ic with
      | line -> (
        match
          let n = String.length line in
          let rec last_colon i = if i < 0 then None else if line.[i] = ':' then Some i else last_colon (i - 1) in
          if n > 0 && String.length line > 20
             && (try String.sub line 0 26 = "xquec serve: listening on " with _ -> false)
          then
            (* strip everything after the port number *)
            let upto = match String.index_opt line '(' with Some i -> i | None -> n in
            let head = String.trim (String.sub line 0 upto) in
            match last_colon (String.length head - 1) with
            | Some c ->
              int_of_string_opt (String.trim (String.sub head (c + 1) (String.length head - c - 1)))
            | None -> None
          else None
        with
        | Some p -> p
        | None -> find ())
      | exception End_of_file -> die "server exited before announcing a port"
    in
    find ()
  in
  Printf.printf "serve_smoke: server up on port %d\n%!" port;
  (* health + one sequential query first, then the concurrent burst *)
  let h = Hammer.request ~port "/healthz" in
  if h.Hammer.r_status <> 200 then die "healthz returned %d" h.Hammer.r_status;
  if not (contains h.Hammer.r_body "\"status\":\"ok\"") then
    die "healthz is not the readiness JSON: %s" h.Hammer.r_body;
  if not (contains h.Hammer.r_body "\"watchdog\"") then
    die "healthz readiness JSON lacks the watchdog section: %s" h.Hammer.r_body;
  let r = Hammer.request ~port ~meth:"POST" ~body:q "/query" in
  if r.Hammer.r_status <> 200 then
    die "query returned %d: %s" r.Hammer.r_status r.Hammer.r_body;
  let reference = r.Hammer.r_body in
  let clients = 20 and per_client = 3 in
  let outcomes =
    Hammer.drive ~port ~clients ~requests_per_client:per_client
      ~target:(fun _ seq ->
        if seq = 1 then ("GET", "/metrics", "") else ("POST", "/query", q))
      ()
  in
  if List.length outcomes <> clients * per_client then
    die "expected %d outcomes, got %d" (clients * per_client) (List.length outcomes);
  List.iter
    (fun (o : Hammer.outcome) ->
      let rep = o.Hammer.o_reply in
      if rep.Hammer.r_status <> 200 then
        die "client %d seq %d: HTTP %d" o.Hammer.o_client
          o.Hammer.o_seq rep.Hammer.r_status;
      if o.Hammer.o_seq <> 1 && rep.Hammer.r_body <> reference then
        die "client %d seq %d: result differs from the sequential reference"
          o.Hammer.o_client o.Hammer.o_seq)
    outcomes;
  (* the /metrics replies must carry the serving series *)
  let metrics_seen =
    List.exists
      (fun (o : Hammer.outcome) ->
        o.Hammer.o_seq = 1
        && contains o.Hammer.o_reply.Hammer.r_body
             "xquec_serve_plan_cache_hits")
      outcomes
  in
  if not metrics_seen then die "/metrics never exposed xquec_serve_plan_cache_hits";
  Printf.printf "serve_smoke: %d concurrent requests ok (results consistent, metrics live)\n%!"
    (clients * per_client);
  (* --- drift watchdog: replay a shifted mix until the alert fires --- *)
  let w = Hammer.request ~port "/watch" in
  if w.Hammer.r_status <> 200 || not (contains w.Hammer.r_body "\"enabled\":true")
  then die "/watch did not report an enabled watchdog: %s" w.Hammer.r_body;
  let shifted =
    [
      "for $o in document(\"auction.xml\")/site/open_auctions/open_auction where $o/reserve > \
       \"100\" return $o/reserve";
      "for $a in document(\"auction.xml\")/site/closed_auctions/closed_auction for $p in \
       document(\"auction.xml\")/site/people/person where $p/@id = $a/buyer/@person return \
       $p/name";
    ]
  in
  let fired = ref false in
  let deadline = Unix.gettimeofday () +. 15.0 in
  while (not !fired) && Unix.gettimeofday () < deadline do
    List.iter
      (fun sq ->
        let rep = Hammer.request ~port ~meth:"POST" ~body:sq "/query" in
        if rep.Hammer.r_status <> 200 then
          die "shifted query returned %d: %s" rep.Hammer.r_status
            rep.Hammer.r_body)
      shifted;
    let a = Hammer.request ~port "/alerts" in
    if
      a.Hammer.r_status = 200
      && contains a.Hammer.r_body "\"rule\":\"drift_sustained\",\"event\":\"fired\""
    then fired := true
    else Unix.sleepf 0.1
  done;
  if not !fired then die "drift_sustained never fired on /alerts within 15s of the shifted mix";
  (* the fired transition must also be in the alert log on disk *)
  let log_data =
    let ic = open_in_bin alerts_log in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  if not (contains log_data "\"rule\":\"drift_sustained\",\"event\":\"fired\"") then
    die "alert log %s lacks the drift_sustained fired transition" alerts_log;
  Printf.printf "serve_smoke: drift_sustained fired on /alerts and in the alert log\n%!";
  (* clean shutdown: SIGTERM, then the process must go away *)
  Unix.kill pid Sys.sigterm;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigterm -> ()
  | _, Unix.WEXITED 0 -> ()
  | _, status ->
    let describe = function
      | Unix.WEXITED c -> Fmt.str "exited %d" c
      | Unix.WSIGNALED s -> Fmt.str "killed by signal %d" s
      | Unix.WSTOPPED s -> Fmt.str "stopped by signal %d" s
    in
    die "unclean shutdown: %s" (describe status));
  close_in_noerr ic;
  (try Sys.remove workload_file with Sys_error _ -> ());
  (try Sys.remove alerts_log with Sys_error _ -> ());
  Printf.printf "serve_smoke: clean shutdown\n%!"
