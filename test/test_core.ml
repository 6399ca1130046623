(* Tests for the §3 machinery (workload, cost model, greedy partitioner)
   and the §4 physical plans. *)

open Xquec_core

let repo_and_workload () =
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let workload =
    Workload.of_query_strings repo (List.map (fun q -> q.Xmark.Queries.text) Xmark.Queries.all)
  in
  (repo, workload)

let container_id repo path =
  match Storage.Repository.find_container_by_path repo path with
  | Some c -> c.Storage.Container.id
  | None -> Alcotest.failf "no container %s" path

(* ------------------------------------------------------------------ *)
(* Workload analysis                                                   *)
(* ------------------------------------------------------------------ *)

let test_workload_extraction () =
  let (repo, w) = repo_and_workload () in
  Alcotest.(check bool) "predicates found" true (List.length w.Workload.predicates >= 10);
  (* Q1's predicate: person/@id vs constant, equality *)
  let pid = container_id repo "/site/people/person/@id" in
  Alcotest.(check bool) "Q1 eq-vs-const present" true
    (List.exists
       (fun (p : Workload.predicate) ->
         p.Workload.cls = Workload.Cls_eq && p.Workload.left = [ pid ] && p.Workload.right = [])
       w.Workload.predicates);
  (* Q8's join: buyer/@person vs person/@id *)
  let buyer = container_id repo "/site/closed_auctions/closed_auction/buyer/@person" in
  Alcotest.(check bool) "Q8 join present" true
    (List.exists
       (fun (p : Workload.predicate) ->
         p.Workload.cls = Workload.Cls_eq
         && List.sort compare (p.Workload.left @ p.Workload.right) = List.sort compare [ pid; buyer ])
       w.Workload.predicates);
  (* Q14's contains: wildcard class *)
  Alcotest.(check bool) "wildcard predicate present" true
    (List.exists (fun (p : Workload.predicate) -> p.Workload.cls = Workload.Cls_wild)
       w.Workload.predicates);
  (* Q11's inequality join involving income *)
  let income = container_id repo "/site/people/person/profile/@income" in
  Alcotest.(check bool) "ineq on income present" true
    (List.exists
       (fun (p : Workload.predicate) ->
         p.Workload.cls = Workload.Cls_ineq && List.mem income (p.Workload.left @ p.Workload.right))
       w.Workload.predicates)

let test_eid_matrices () =
  let (repo, w) = repo_and_workload () in
  let (e, i, d) = Workload.matrices w in
  let n = w.Workload.container_count in
  Alcotest.(check int) "matrix size" (n + 1) (Array.length e);
  (* symmetry *)
  let symmetric m =
    let ok = ref true in
    Array.iteri (fun a row -> Array.iteri (fun b v -> if m.(b).(a) <> v then ok := false) row) m;
    !ok
  in
  Alcotest.(check bool) "E symmetric" true (symmetric e);
  Alcotest.(check bool) "I symmetric" true (symmetric i);
  Alcotest.(check bool) "D symmetric" true (symmetric d);
  (* Q1: person/@id vs constant is an equality entry in the last column *)
  let pid = container_id repo "/site/people/person/@id" in
  Alcotest.(check bool) "Q1 counted in E vs const" true (e.(pid).(n) >= 1);
  (* Q8's join appears off-diagonal in E *)
  let buyer = container_id repo "/site/closed_auctions/closed_auction/buyer/@person" in
  Alcotest.(check bool) "Q8 join counted in E" true (e.(pid).(buyer) >= 1);
  (* Q11's income inequality lands in I *)
  let income = container_id repo "/site/people/person/profile/@income" in
  let row_sum = Array.fold_left ( + ) 0 i.(income) in
  Alcotest.(check bool) "income row of I nonzero" true (row_sum >= 1)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_prefers_enabling_algorithm () =
  let (repo, w) = repo_and_workload () in
  let pid = container_id repo "/site/people/person/@id" in
  let buyer = container_id repo "/site/closed_auctions/closed_auction/buyer/@person" in
  let w =
    { w with
      Workload.predicates =
        List.filter
          (fun (p : Workload.predicate) ->
            List.for_all (fun c -> c = pid || c = buyer) (p.Workload.left @ p.Workload.right))
          w.Workload.predicates }
  in
  let cm = Cost_model.create repo w in
  let cost sets = Cost_model.cost cm { Cost_model.sets } in
  let separate_bzip =
    cost [ ([ pid ], Compress.Codec.Bzip_alg); ([ buyer ], Compress.Codec.Bzip_alg) ]
  in
  let merged_alm = cost [ ([ pid; buyer ], Compress.Codec.Alm_alg) ] in
  Alcotest.(check bool) "shared ALM beats separate bzip" true (merged_alm < separate_bzip);
  (* the join needs a shared model: separate ALM sets still pay
     decompression for the join predicate *)
  let separate_alm =
    cost [ ([ pid ], Compress.Codec.Alm_alg); ([ buyer ], Compress.Codec.Alm_alg) ]
  in
  let bd_model = Cost_model.create repo w in
  let bd_sep =
    Cost_model.breakdown bd_model
      { Cost_model.sets = [ ([ pid ], Compress.Codec.Alm_alg); ([ buyer ], Compress.Codec.Alm_alg) ] }
  in
  let bd_merged =
    Cost_model.breakdown bd_model { Cost_model.sets = [ ([ pid; buyer ], Compress.Codec.Alm_alg) ] }
  in
  Alcotest.(check bool) "separate models pay decompression" true
    (bd_sep.Cost_model.decompression > 0.0);
  Alcotest.(check bool) "shared model avoids decompression" true
    (bd_merged.Cost_model.decompression = 0.0);
  ignore separate_alm

let test_numeric_rejected_on_text () =
  let (repo, w) = repo_and_workload () in
  let cm = Cost_model.create repo w in
  let name = container_id repo "/site/people/person/name/#text" in
  let (s, _) = Cost_model.estimate_set cm [ name ] Compress.Codec.Numeric_alg in
  Alcotest.(check bool) "numeric codec impossible on names" true (s = Float.infinity)

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)
(* ------------------------------------------------------------------ *)

let test_partitioner_improves_and_colocates () =
  let (repo, w) = repo_and_workload () in
  let result = Partitioner.search repo w in
  Alcotest.(check bool) "final <= initial" true
    (result.Partitioner.final_cost <= result.Partitioner.initial_cost);
  (* the Q8 join partners must share a set with an eq-capable algorithm *)
  let pid = container_id repo "/site/people/person/@id" in
  let buyer = container_id repo "/site/closed_auctions/closed_auction/buyer/@person" in
  let set_of id =
    List.find_opt (fun (ids, _) -> List.mem id ids)
      result.Partitioner.configuration.Cost_model.sets
  in
  (match set_of pid, set_of buyer with
  | Some (ids1, alg1), Some (ids2, _) ->
    Alcotest.(check bool) "join partners share a set" true (ids1 = ids2);
    Alcotest.(check bool) "their algorithm supports eq" true
      (Compress.Codec.supports alg1 `Eq)
  | _ -> Alcotest.fail "join containers not in any set");
  (* numeric inequality containers end up on an ineq-capable codec *)
  let income = container_id repo "/site/people/person/profile/@income" in
  match set_of income with
  | Some (_, alg) ->
    Alcotest.(check bool) "income codec supports ineq" true (Compress.Codec.supports alg `Ineq)
  | None -> Alcotest.fail "income not in any set"

let test_partitioner_apply_preserves_data () =
  let xml = Xmark.Xmlgen.generate ~scale:0.04 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let before =
    Array.to_list repo.Storage.Repository.containers
    |> List.map (fun c -> (c.Storage.Container.path, List.sort compare (Storage.Container.dump c)))
  in
  let queries = List.map (fun q -> Xquery.Parser.parse q.Xmark.Queries.text) Xmark.Queries.all in
  ignore (Partitioner.optimize repo queries);
  let after =
    Array.to_list repo.Storage.Repository.containers
    |> List.map (fun c -> (c.Storage.Container.path, List.sort compare (Storage.Container.dump c)))
  in
  Alcotest.(check bool) "container contents preserved" true (before = after)

(* The §3.3 flavour: with an inequality workload over textual containers,
   the partitioner moves them from bzip to an order-preserving codec. *)
let test_partitioner_section33_example () =
  let values tagname n f =
    List.init n (fun i -> Printf.sprintf "<%s>%s</%s>" tagname (f i) tagname)
  in
  let words = [| "the"; "quick"; "brown"; "shakespeare"; "wrote"; "plays" |] in
  let xml =
    "<corpus>"
    ^ String.concat ""
        (values "sentence" 120 (fun i ->
             Printf.sprintf "%s %s %s" words.(i mod 6) words.((i / 2) mod 6) words.((i / 3) mod 6)))
    ^ String.concat "" (values "pname" 80 (fun i -> Printf.sprintf "Person %c" (Char.chr (65 + (i mod 26)))))
    ^ String.concat "" (values "date" 80 (fun i -> Printf.sprintf "2001-%02d-%02d" (1 + (i mod 12)) (1 + (i mod 28))))
    ^ "</corpus>"
  in
  let repo = Loader.load ~name:"c.xml" xml in
  let queries =
    List.map Xquery.Parser.parse
      [
        "for $s in document(\"c.xml\")/corpus/sentence where $s/text() > \"m\" return $s";
        "for $p in document(\"c.xml\")/corpus/pname where $p/text() < \"Person M\" return $p";
        "for $d in document(\"c.xml\")/corpus/date where $d/text() >= \"2001-06\" return $d";
      ]
  in
  let w = Workload.analyze repo queries in
  let result = Partitioner.search repo w in
  List.iter
    (fun (ids, alg) ->
      Alcotest.(check bool)
        (Printf.sprintf "set {%s} got an order-preserving codec"
           (String.concat "," (List.map string_of_int ids)))
        true
        (Compress.Codec.supports alg `Ineq))
    result.Partitioner.configuration.Cost_model.sets

(* ------------------------------------------------------------------ *)
(* Optimizer / explain                                                 *)
(* ------------------------------------------------------------------ *)

let test_explain_q1 () =
  let xml = Xmark.Xmlgen.generate ~scale:0.04 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let ds = Optimizer.explain repo (Xquery.Parser.parse (Xmark.Queries.by_id "Q1").Xmark.Queries.text) in
  (* Q1's @id = "person0" predicate pushes into the @id container in the
     compressed domain (ALM supports eq) *)
  Alcotest.(check bool) "pushdown present" true
    (List.exists
       (function
         | Optimizer.Pushdown p ->
           p.Optimizer.compressed_domain
           && List.mem "/site/people/person/@id" p.Optimizer.containers
         | _ -> false)
       ds)

let test_explain_q8_decorrelates () =
  let xml = Xmark.Xmlgen.generate ~scale:0.04 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let ds = Optimizer.explain repo (Xquery.Parser.parse (Xmark.Queries.by_id "Q8").Xmark.Queries.text) in
  Alcotest.(check bool) "Q8 nested flwor decorrelates" true
    (List.exists (function Optimizer.Decorrelate _ -> true | _ -> false) ds)

let test_explain_join_on_codes_after_partitioning () =
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let q8 = Xquery.Parser.parse (Xmark.Queries.by_id "Q8").Xmark.Queries.text in
  let before = Optimizer.explain repo q8 in
  let codes = function Optimizer.Decorrelate { on_codes; _ } -> Some on_codes | _ -> None in
  Alcotest.(check (option bool)) "string keys before partitioning" (Some false)
    (List.find_map codes before);
  ignore
    (Partitioner.optimize repo
       (List.map (fun q -> Xquery.Parser.parse q.Xmark.Queries.text) Xmark.Queries.all));
  let after = Optimizer.explain repo q8 in
  Alcotest.(check (option bool)) "compressed-code keys after partitioning" (Some true)
    (List.find_map codes after)

let test_explain_q9_join () =
  let xml = Xmark.Xmlgen.generate ~scale:0.04 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let ds = Optimizer.explain repo (Xquery.Parser.parse (Xmark.Queries.by_id "Q9").Xmark.Queries.text) in
  Alcotest.(check bool) "inner double-FOR plans a hash join" true
    (List.exists (function Optimizer.Hash_join _ -> true | _ -> false) ds)

let test_explain_block_join () =
  (* when both join sides share a source model and are sorted runs,
     EXPLAIN reports the header-driven block merge join with its static
     probe/skip split *)
  let xml =
    "<db><items>"
    ^ String.concat ""
        (List.init 400 (fun i -> Printf.sprintf "<item><key>k%04d</key></item>" i))
    ^ "</items><lookups><lookup><ref>k0003</ref></lookup></lookups></db>"
  in
  let q =
    "for $l in doc('j.xml')/db/lookups/lookup for $i in doc('j.xml')/db/items/item \
     where $i/key = $l/ref return $i/key"
  in
  let saved = Storage.Container.default_block_size () in
  Storage.Container.set_default_block_size 512;
  Fun.protect ~finally:(fun () -> Storage.Container.set_default_block_size saved)
  @@ fun () ->
  let eng = Engine.load ~name:"j.xml" ~workload:[ q ] xml in
  let ds = Optimizer.explain (Engine.repo eng) (Xquery.Parser.parse q) in
  match
    List.find_map
      (function
        | Optimizer.Block_join { blocks_probed; blocks_skipped; skip_fraction; _ } ->
          Some (blocks_probed, blocks_skipped, skip_fraction)
        | _ -> None)
      ds
  with
  | Some (probed, skipped, frac) ->
    Alcotest.(check bool) "skips blocks statically" true (skipped > 0);
    Alcotest.(check bool) "probes at least one block" true (probed > 0);
    Alcotest.(check bool) "skip fraction in (0,1]" true (frac > 0.0 && frac <= 1.0)
  | None -> Alcotest.fail "no block join decision in EXPLAIN"

(* EXPLAIN reports the executor's own decisions: a nested FLWOR is
   "decorrelated" exactly when the profiled run has a decorrelate
   operator, and each hash join / sorted probe it reports for a
   top-level FOR is an operator of that kind. In the "watches" query
   the inner FOR ranges over the outer tuple's own subtree, which rules
   decorrelation out. *)
let test_explain_agrees_with_executor () =
  let xml = Xmark.Xmlgen.generate ~scale:0.04 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let watches =
    "for $p in document(\"auction.xml\")/site/people/person \
     let $a := for $w in $p/watches/watch where $w/@open_auction = $p/@id return $w \
     return <p>{count($a)}</p>"
  in
  (* variables of FLWORs not nested in another FLWOR: the ones the
     executor opens profiled operators for *)
  let rec top_vars (e : Xquery.Ast.expr) =
    match e with
    | Xquery.Ast.Flwor (clauses, _) ->
      List.filter_map
        (function Xquery.Ast.For (v, _) | Xquery.Ast.Let (v, _) -> Some v | _ -> None)
        clauses
    | Xquery.Ast.Element (_, _, kids) -> List.concat_map top_vars kids
    | Xquery.Ast.Aggregate (_, a) -> top_vars a
    | _ -> []
  in
  List.iter
    (fun (id, text) ->
      let ast = Xquery.Parser.parse text in
      let top = top_vars ast in
      let ds = Optimizer.explain repo ast in
      let (_, plan) = Executor.run_profiled repo ast in
      let ops =
        Xquec_obs.Explain.fold
          (fun acc n -> (n.Xquec_obs.Explain.kind, n.Xquec_obs.Explain.op) :: acc)
          [] plan
      in
      let has kind op = List.mem (kind, op) ops in
      let expect what v b =
        if List.mem v top then
          Alcotest.(check bool) (Printf.sprintf "%s: %s $%s" id what v) true b
      in
      List.iter
        (function
          | Optimizer.Decorrelate { variable = v; _ } ->
            expect "decorrelate operator for" v (has "decorrelate" ("decorrelate $" ^ v))
          | Optimizer.Correlated_loop { variable = v } ->
            expect "no decorrelate operator for" v (not (has "decorrelate" ("decorrelate $" ^ v)))
          | Optimizer.Hash_join { variable = v; _ } ->
            expect "hash join operator for" v (has "hash_join" ("hash join $" ^ v))
          | Optimizer.Sorted_probe { variable = v; _ } ->
            expect "sorted probe operator for" v (has "sorted_probe" ("sorted probe $" ^ v))
          | _ -> ())
        ds;
      List.iter
        (fun (kind, op) ->
          if kind = "decorrelate" then
            Alcotest.(check bool) (Printf.sprintf "%s: %s reported" id op) true
              (List.exists
                 (function
                   | Optimizer.Decorrelate { variable = v; _ } -> op = "decorrelate $" ^ v
                   | _ -> false)
                 ds))
        ops;
      if id = "watches" then
        Alcotest.(check bool) "watches: correlated loop reported" true
          (List.exists (function Optimizer.Correlated_loop _ -> true | _ -> false) ds))
    (List.map (fun (q : Xmark.Queries.query) -> (q.Xmark.Queries.id, q.Xmark.Queries.text))
       Xmark.Queries.all
    @ [
        ("watches", watches);
        ( "eq join",
          "for $t in document(\"auction.xml\")/site/closed_auctions/closed_auction, \
           $p in document(\"auction.xml\")/site/people/person \
           where $t/buyer/@person = $p/@id return $p/name/text()" );
        ( "inequality join",
          "count(for $i in document(\"auction.xml\")/site/open_auctions/open_auction/initial, \
           $c in document(\"auction.xml\")/site/closed_auctions/closed_auction \
           where $i/text() > $c/price/text() return $c)" );
      ])

(* ------------------------------------------------------------------ *)
(* Physical plans                                                      *)
(* ------------------------------------------------------------------ *)

let test_q9_plan_matches_naive_and_executor () =
  let xml = Xmark.Xmlgen.generate ~scale:0.15 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let plan = List.sort compare (Plans.q9 repo) in
  let naive = List.sort compare (Plans.q9_naive repo) in
  Alcotest.(check bool) "plan = naive" true (plan = naive);
  Alcotest.(check bool) "plan nonempty" true (plan <> [])

let test_physical_operators () =
  let xml = "<r><p k=\"b\"/><p k=\"a\"/><p k=\"c\"/><q k=\"b\"/><q k=\"c\"/></r>" in
  let repo = Loader.load ~name:"r" xml in
  let p_k = container_id repo "/r/p/@k" in
  let q_k = container_id repo "/r/q/@k" in
  Alcotest.(check int) "cont_scan" 3 (Physical.cardinality (Physical.cont_scan repo p_k));
  Alcotest.(check int) "cont_access_eq" 1
    (Physical.cardinality (Physical.cont_access_eq repo p_k ~value:"b"));
  Alcotest.(check int) "cont_access_range" 2
    (Physical.cardinality (Physical.cont_access_range repo p_k ~lo:"b" ()));
  (* merge join only when models are shared; re-key on strings instead *)
  let str_key = function
    | Executor.Cval { cont; code } -> Compress.Codec.decompress cont.Storage.Container.model code
    | _ -> ""
  in
  let joined =
    Physical.hash_join ~key:str_key (Physical.cont_scan repo p_k) ~lcol:0
      (Physical.cont_scan repo q_k) ~rcol:0
  in
  Alcotest.(check int) "hash_join b,c" 2 (Physical.cardinality joined);
  let code n = Option.get (Storage.Name_dict.code repo.Storage.Repository.dict n) in
  let summary_plan = Physical.summary_access repo [ `Child (code "r"); `Child (code "p") ] in
  Alcotest.(check int) "summary access" 3 (Physical.cardinality summary_plan);
  let with_parent = Physical.parent repo summary_plan ~col:0 in
  Alcotest.(check int) "parent keeps cardinality" 3 (Physical.cardinality with_parent)

let test_merge_join_shared_model () =
  (* after partitioning onto one model, the compressed-domain merge join
     applies and agrees with the string hash join *)
  let xml = Xmark.Xmlgen.generate ~scale:0.08 () in
  let repo = Loader.load ~name:"auction.xml" xml in
  let queries = List.map (fun q -> Xquery.Parser.parse q.Xmark.Queries.text) Xmark.Queries.all in
  ignore (Partitioner.optimize repo queries);
  let pid = container_id repo "/site/people/person/@id" in
  let buyer = container_id repo "/site/closed_auctions/closed_auction/buyer/@person" in
  let shared =
    (Storage.Repository.container repo pid).Storage.Container.model_id
    = (Storage.Repository.container repo buyer).Storage.Container.model_id
  in
  Alcotest.(check bool) "partitioner shared the model" true shared;
  let merge =
    Physical.merge_join (Physical.cont_scan repo pid) ~lcol:0
      (Physical.cont_scan repo buyer) ~rcol:0
  in
  let str_key = function
    | Executor.Cval { cont; code } -> Compress.Codec.decompress cont.Storage.Container.model code
    | _ -> ""
  in
  let hash =
    Physical.hash_join ~key:str_key (Physical.cont_scan repo pid) ~lcol:0
      (Physical.cont_scan repo buyer) ~rcol:0
  in
  Alcotest.(check int) "merge join = hash join cardinality" (Physical.cardinality hash)
    (Physical.cardinality merge)

let suites =
  [
    ( "workload",
      [
        Alcotest.test_case "predicate extraction" `Quick test_workload_extraction;
        Alcotest.test_case "E/I/D matrices" `Quick test_eid_matrices;
      ] );
    ( "cost-model",
      [
        Alcotest.test_case "prefers enabling algorithms" `Quick test_cost_prefers_enabling_algorithm;
        Alcotest.test_case "numeric rejected on text" `Quick test_numeric_rejected_on_text;
      ] );
    ( "partitioner",
      [
        Alcotest.test_case "improves cost and co-locates joins" `Quick
          test_partitioner_improves_and_colocates;
        Alcotest.test_case "apply preserves container data" `Quick
          test_partitioner_apply_preserves_data;
        Alcotest.test_case "section 3.3 example shape" `Quick test_partitioner_section33_example;
      ] );
    ( "optimizer",
      [
        Alcotest.test_case "explain Q1 pushdown" `Quick test_explain_q1;
        Alcotest.test_case "explain Q8 decorrelation" `Quick test_explain_q8_decorrelates;
        Alcotest.test_case "explain join keys vs partitioning" `Quick
          test_explain_join_on_codes_after_partitioning;
        Alcotest.test_case "explain Q9 hash join" `Quick test_explain_q9_join;
        Alcotest.test_case "explain block merge join" `Quick test_explain_block_join;
        Alcotest.test_case "explain agrees with executor" `Quick test_explain_agrees_with_executor;
      ] );
    ( "physical-plans",
      [
        Alcotest.test_case "operators" `Quick test_physical_operators;
        Alcotest.test_case "fig. 5 Q9 plan" `Slow test_q9_plan_matches_naive_and_executor;
        Alcotest.test_case "compressed-domain merge join" `Slow test_merge_join_shared_model;
      ] );
  ]
