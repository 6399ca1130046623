(* Bench regression gate CLI: diff a fresh bench run against the
   committed baseline (BENCH_results.json) with per-metric-class
   tolerances and emit a machine-readable verdict.

   The comparison logic lives in Xquec_harness.Gate (pure JSON in / report
   out); this executable is just argument parsing, file IO and exit
   codes:

     bench_gate --candidate _gate/results.json            # full diff
     bench_gate --quick --candidate _gate/results.json    # skip timings
     bench_gate --json verdict.json ...                   # write verdict

   Every run also appends one compact summary line to the committed
   BENCH_history.jsonl (see docs/OBSERVABILITY.md for the schema), so
   the perf trajectory across PRs stays visible instead of only the
   latest BENCH_results.json surviving. --history FILE redirects it;
   --history '' disables the append.

   Exit status: 0 = gate passed, 1 = regression (failed or missing
   metrics), 2 = bad usage / unreadable input. *)

module Gate = Xquec_harness.Gate

let usage =
  "bench_gate [--baseline FILE] [--candidate FILE] [--quick] [--json OUT] [--history FILE]"

let baseline = ref "BENCH_results.json"
let candidate = ref ""
let quick = ref false
let json_out = ref ""
let history = ref "BENCH_history.jsonl"

let spec =
  [
    ( "--baseline",
      Arg.Set_string baseline,
      "FILE  committed baseline (default BENCH_results.json)" );
    ("--candidate", Arg.Set_string candidate, "FILE  fresh bench results to check");
    ( "--quick",
      Arg.Set quick,
      "  skip timing metrics (machine-speed independent; what `make check` uses)" );
    ("--json", Arg.Set_string json_out, "OUT  also write the verdict as JSON to OUT");
    ( "--history",
      Arg.Set_string history,
      "FILE  append a one-line run summary (default BENCH_history.jsonl; '' disables)" );
  ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench_gate: " ^ s); exit 2) fmt

let read_json ~what path =
  let data =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error e -> die "cannot read %s %s: %s" what path e
  in
  try Xquec_obs.Json.parse data
  with Xquec_obs.Json.Parse_error e -> die "%s %s: %s" what path e

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* One compact line per run: verdict counters plus each candidate
   experiment's harness wall time, so `git log -p BENCH_history.jsonl`
   shows the perf trajectory. A failed append is a warning, not an
   error — the gate verdict must not depend on a writable worktree. *)
let append_history ~cand (report : Gate.report) =
  let module J = Xquec_obs.Json in
  let walls =
    match J.member "experiments" cand with
    | Some (J.Obj exps) ->
        List.filter_map
          (fun (name, body) ->
            match J.member "wall_s" body with
            | Some (J.Num _ as n) -> Some (name, n)
            | _ -> None)
          exps
    | _ -> []
  in
  let n i = J.Num (float_of_int i) in
  let line =
    J.Obj
      [
        ("ts", J.Str (iso8601 (Unix.gettimeofday ())));
        ("mode", J.Str (if !quick then "quick" else "full"));
        ("passed", J.Bool report.Gate.r_passed);
        ("compared", n report.Gate.r_compared);
        ("failed", n report.Gate.r_failed);
        ("missing", n report.Gate.r_missing);
        ("skipped", n report.Gate.r_skipped);
        ("wall_s", J.Obj walls);
      ]
  in
  try
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 !history in
    output_string oc (J.to_string line);
    output_char oc '\n';
    close_out oc
  with Sys_error e -> prerr_endline ("bench_gate: history append failed: " ^ e)

let () =
  Arg.parse spec (fun a -> die "unexpected argument %S" a) usage;
  if !candidate = "" then die "missing --candidate FILE (fresh bench results)";
  let mode = if !quick then Gate.Quick else Gate.Full in
  let cand = read_json ~what:"candidate" !candidate in
  let report =
    Gate.compare_results ~mode
      ~baseline:(read_json ~what:"baseline" !baseline)
      ~candidate:cand
  in
  if !history <> "" then append_history ~cand report;
  if !json_out <> "" then begin
    let oc = open_out !json_out in
    output_string oc (Xquec_obs.Json.to_string (Gate.report_to_json report));
    output_char oc '\n';
    close_out oc
  end;
  print_string (Gate.render report);
  exit (if report.Gate.r_passed then 0 else 1)
