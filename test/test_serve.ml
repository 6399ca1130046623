(* Concurrent serving tests: plan-cache LRU semantics and digest
   stability, accept-time admission (503 + Retry-After past
   max-inflight), per-query budget enforcement (408 with a structured
   body), mid-response client disconnects (EPIPE must not kill the
   server), result correctness under genuinely concurrent clients, and
   the SLO window under concurrent writers. *)

open Xquec_core
module Obs = Xquec_obs
module Hammer = Xquec_harness.Hammer

let with_fresh_telemetry f =
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.reset ()) (fun () -> Obs.with_enabled f)

(* One small generated XMark document, compressed once and shared by
   the tests that only read it. Budget tests load their own copy so
   every block access is a real decode (fresh uid = nothing resident). *)
let xmark_xml = lazy (Xmark.Xmlgen.generate ~scale:0.05 ())

let shared_engine = lazy (Engine.load ~name:"auction.xml" (Lazy.force xmark_xml))

(* A raw HTTP exchange that keeps the full response text, so tests can
   assert on headers (Hammer.request only surfaces status + body). *)
let raw_request ~port (payload : string) : string =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          recv ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      recv ();
      Buffer.contents buf)

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go k = k + lb <= ls && (String.sub s k lb = sub || go (k + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_lru () =
  Plan_cache.set_capacity 2;
  Plan_cache.clear ();
  Plan_cache.reset_stats ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let compile q = fst (Plan_cache.find_or_add ~key:q (fun () -> Engine.parse_query q)) in
  let q1 = "1+2" and q2 = "2+3" and q3 = "3+4" in
  ignore (compile q1);
  (* miss *)
  ignore (compile q2);
  (* miss; cache = [q2; q1] *)
  ignore (compile q1);
  (* hit; cache = [q1; q2] *)
  ignore (compile q3);
  (* miss; evicts q2 (LRU tail); cache = [q3; q1] *)
  ignore (compile q2);
  (* miss again: q2 was evicted; evicts q1; cache = [q2; q3] *)
  ignore (compile q1);
  (* miss: q1 was just evicted; evicts q3; cache = [q1; q2] *)
  let s = Plan_cache.snapshot () in
  Alcotest.(check int) "hits" 1 s.Plan_cache.s_hits;
  Alcotest.(check int) "misses" 5 s.Plan_cache.s_misses;
  Alcotest.(check int) "evictions" 3 s.Plan_cache.s_evictions;
  Alcotest.(check int) "entries" 2 s.Plan_cache.s_entries;
  Alcotest.(check int) "capacity" 2 s.Plan_cache.s_capacity;
  (* a parse error must propagate and cache nothing *)
  (match Plan_cache.find_or_add ~key:"broken" (fun () -> Engine.parse_query "for $x") with
  | _ -> Alcotest.fail "parse error did not propagate"
  | exception _ -> ());
  let s2 = Plan_cache.snapshot () in
  Alcotest.(check int) "failed compile not cached" 2 s2.Plan_cache.s_entries

let test_plan_cache_hit_digest_identical () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  Plan_cache.set_capacity 8;
  Plan_cache.clear ();
  Plan_cache.reset_stats ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let q = "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" in
  let r1 = Serve.run_query engine q in
  let r2 = Serve.run_query engine q in
  Alcotest.(check int) "cold status" 200 r1.Obs.Expo.status;
  Alcotest.(check int) "warm status" 200 r2.Obs.Expo.status;
  Alcotest.(check string) "hit returns identical bytes"
    (Digest.to_hex (Digest.string r1.Obs.Expo.body))
    (Digest.to_hex (Digest.string r2.Obs.Expo.body));
  let s = Plan_cache.snapshot () in
  Alcotest.(check int) "one miss (cold)" 1 s.Plan_cache.s_misses;
  Alcotest.(check int) "one hit (warm)" 1 s.Plan_cache.s_hits

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_admission_sheds_beyond_max_inflight () =
  with_fresh_telemetry @@ fun () ->
  (* a controllable handler: /block parks until the test releases it,
     occupying a worker and an admission slot deterministically *)
  let m = Mutex.create () in
  let cv = Condition.create () in
  let released = ref false in
  let extra (req : Obs.Expo.request) =
    if req.Obs.Expo.path = "/block" then begin
      Mutex.lock m;
      while not !released do
        Condition.wait cv m
      done;
      Mutex.unlock m;
      Some (Obs.Expo.respond 200 "text/plain" "unblocked\n")
    end
    else None
  in
  Obs.Expo.reset_stats ();
  let server = Obs.Expo.start ~port:0 ~workers:2 ~max_inflight:2 ~extra () in
  let port = Obs.Expo.port server in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  Fun.protect ~finally:(fun () -> release (); Obs.Expo.stop server)
  @@ fun () ->
  let blocked = List.init 2 (fun _ -> Domain.spawn (fun () -> Hammer.request ~port "/block")) in
  (* wait until both requests are admitted and parked in the handler *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Obs.Expo.stats ()).Obs.Expo.e_inflight < 2 && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.005
  done;
  Alcotest.(check int) "both connections in flight" 2
    (Obs.Expo.stats ()).Obs.Expo.e_inflight;
  (* the third connection must be shed without touching a worker *)
  let raw = raw_request ~port "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" in
  Alcotest.(check bool) "shed with 503" true (contains raw "HTTP/1.1 503");
  Alcotest.(check bool) "Retry-After header present" true (contains raw "Retry-After: 1");
  Alcotest.(check bool) "structured body" true (contains raw "\"error\":\"saturated\"");
  release ();
  let replies = List.map Domain.join blocked in
  List.iter
    (fun (r : Hammer.reply) ->
      Alcotest.(check int) "blocked requests finish with 200" 200 r.Hammer.r_status)
    replies;
  let s = Obs.Expo.stats () in
  Alcotest.(check bool) "rejection counted" true (s.Obs.Expo.e_rejected >= 1);
  Alcotest.(check int) "nothing left in flight" 0 s.Obs.Expo.e_inflight

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let test_decode_budget_trips_408 () =
  with_fresh_telemetry @@ fun () ->
  (* fresh load: fresh container uids, so nothing is resident and every
     block access decodes (and charges the budget) for real *)
  let engine = Engine.load ~name:"auction.xml" (Lazy.force xmark_xml) in
  Serve.set_budgets ~decode_bytes:1 ();
  Fun.protect ~finally:(fun () -> Serve.set_budgets ())
  @@ fun () ->
  let r = Serve.run_query engine "document(\"auction.xml\")/site/people/person/name" in
  Alcotest.(check int) "terminated with 408" 408 r.Obs.Expo.status;
  Alcotest.(check bool) "structured error body" true
    (contains r.Obs.Expo.body "\"error\":\"budget_exceeded\"");
  Alcotest.(check bool) "names the tripped budget" true
    (contains r.Obs.Expo.body "\"budget\":\"decode_bytes\"");
  (* the evaluating domain must be disarmed afterwards: the same query
     without budgets succeeds *)
  Serve.set_budgets ();
  let ok = Serve.run_query engine "document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" in
  Alcotest.(check int) "disarmed afterwards" 200 ok.Obs.Expo.status

let test_wall_budget_trips_408 () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  (* microscopic wall budget: the first block-access poll is already
     past it (parsing alone takes longer) *)
  Serve.set_budgets ~wall_ms:0.0001 ();
  Fun.protect ~finally:(fun () -> Serve.set_budgets ())
  @@ fun () ->
  let r = Serve.run_query engine "document(\"auction.xml\")/site/people/person/name" in
  Alcotest.(check int) "terminated with 408" 408 r.Obs.Expo.status;
  Alcotest.(check bool) "names the tripped budget" true
    (contains r.Obs.Expo.body "\"budget\":\"wall_ms\"")

(* ------------------------------------------------------------------ *)
(* Client disconnects                                                  *)
(* ------------------------------------------------------------------ *)

let test_epipe_mid_response_survives () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  let server =
    Obs.Expo.start ~port:0 ~workers:1 ~extra:(Serve.handler engine) ()
  in
  let port = Obs.Expo.port server in
  Fun.protect ~finally:(fun () -> Obs.Expo.stop server)
  @@ fun () ->
  (* ask for a large result, then vanish with an RST (SO_LINGER 0) the
     moment the request is sent — the server's response write hits a
     dead connection mid-stream *)
  for _ = 1 to 3 do
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let q = "document(\"auction.xml\")/site" in
    let payload =
      Printf.sprintf
        "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        (String.length q) q
    in
    ignore (Unix.write_substring sock payload 0 (String.length payload));
    Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0);
    Unix.close sock
  done;
  (* the server must still be alive and serving *)
  let r = Hammer.request ~port "/healthz" in
  Alcotest.(check int) "server survives RST storms" 200 r.Hammer.r_status;
  let q = Hammer.request ~port ~meth:"POST"
      ~body:"document(\"auction.xml\")/site/people/person[@id = \"person0\"]/name" "/query"
  in
  Alcotest.(check int) "queries still served" 200 q.Hammer.r_status

(* ------------------------------------------------------------------ *)
(* Concurrent correctness                                              *)
(* ------------------------------------------------------------------ *)

let test_concurrent_clients_correct_results () =
  with_fresh_telemetry @@ fun () ->
  let engine = Lazy.force shared_engine in
  Plan_cache.set_capacity 32;
  Plan_cache.clear ();
  Fun.protect ~finally:(fun () -> Plan_cache.set_capacity 0)
  @@ fun () ->
  let server =
    Obs.Expo.start ~port:0 ~workers:3 ~max_inflight:64 ~extra:(Serve.handler engine)
      ~collect:Serve.publish_pool_metrics ()
  in
  let port = Obs.Expo.port server in
  Fun.protect ~finally:(fun () -> Obs.Expo.stop server)
  @@ fun () ->
  (* every client computes a different arithmetic expression: the reply
     is predictable per (client, seq), so any cross-request mixup under
     concurrency is caught exactly *)
  let clients = 12 and per_client = 4 in
  let outcomes =
    Hammer.drive ~port ~clients ~requests_per_client:per_client
      ~target:(fun client seq ->
        ("POST", "/query", Printf.sprintf "%d+%d" (10 * client) seq))
      ()
  in
  Alcotest.(check int) "every request answered" (clients * per_client)
    (List.length outcomes);
  List.iter
    (fun (o : Hammer.outcome) ->
      Alcotest.(check int)
        (Printf.sprintf "client %d seq %d status" o.Hammer.o_client o.Hammer.o_seq)
        200 o.Hammer.o_reply.Hammer.r_status;
      Alcotest.(check string)
        (Printf.sprintf "client %d seq %d result" o.Hammer.o_client o.Hammer.o_seq)
        (Printf.sprintf "%d\n" ((10 * o.Hammer.o_client) + o.Hammer.o_seq))
        o.Hammer.o_reply.Hammer.r_body)
    outcomes

let test_window_concurrent_writers () =
  with_fresh_telemetry @@ fun () ->
  Serve.window_reset ();
  let writers = 4 and per_writer = 250 in
  let domains =
    List.init writers (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to per_writer do
              Serve.window_observe ~error:(i = 0) 1.0
            done))
  in
  List.iter Domain.join domains;
  let w = Serve.window_stats () in
  Alcotest.(check int) "no observation lost" (writers * per_writer) w.Serve.ws_requests;
  Alcotest.(check int) "errors from exactly one writer" per_writer w.Serve.ws_errors;
  Serve.window_reset ()

let suites =
  [
    ( "serve-concurrent",
      [
        Alcotest.test_case "plan-cache LRU." `Quick test_plan_cache_lru;
        Alcotest.test_case "plan-cache hit digest-identical." `Quick
          test_plan_cache_hit_digest_identical;
        Alcotest.test_case "admission sheds with 503." `Quick
          test_admission_sheds_beyond_max_inflight;
        Alcotest.test_case "decode budget trips 408." `Quick test_decode_budget_trips_408;
        Alcotest.test_case "wall budget trips 408." `Quick test_wall_budget_trips_408;
        Alcotest.test_case "EPIPE mid-response survives." `Quick
          test_epipe_mid_response_survives;
        Alcotest.test_case "concurrent clients correct." `Quick
          test_concurrent_clients_correct_results;
        Alcotest.test_case "SLO window concurrent writers." `Quick
          test_window_concurrent_writers;
      ] );
  ]
