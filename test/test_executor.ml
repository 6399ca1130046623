(* Semantics tests for the XQueC executor on hand-built documents, plus
   compressed-domain specific behaviour (pushdowns, algorithm
   independence, late decompression). *)

open Xquec_core

let doc =
  "<shop>\
   <item id=\"i1\" price=\"10.50\"><name>chair</name><tag>wood</tag><tag>old</tag></item>\
   <item id=\"i2\" price=\"5.00\"><name>table</name><tag>wood</tag></item>\
   <item id=\"i3\" price=\"99.99\"><name>mirror</name></item>\
   <sale><ref item=\"i2\"/><ref item=\"i3\"/></sale>\
   <note>gold plated mirror available</note>\
   </shop>"

let repo = lazy (Loader.load ~name:"shop.xml" doc)

let run q = Executor.serialize (Lazy.force repo) (Executor.run_string (Lazy.force repo) q)

let check name expected q = Alcotest.(check string) name expected (run q)

let test_paths () =
  check "child text" "chair\ntable\nmirror" "document(\"shop.xml\")/shop/item/name/text()";
  check "descendant" "chair\ntable\nmirror" "document(\"shop.xml\")/shop//name/text()";
  check "attribute" "id=\"i1\"\nid=\"i2\"\nid=\"i3\"" "document(\"shop.xml\")/shop/item/@id";
  check "wildcard count" "5" "count(document(\"shop.xml\")/shop/*)"

let test_predicates () =
  check "eq predicate on attr" "table" "document(\"shop.xml\")/shop/item[@id = \"i2\"]/name/text()";
  check "eq predicate on child" "chair"
    "document(\"shop.xml\")/shop/item[name = \"chair\"]/name/text()";
  check "numeric range predicate" "chair\nmirror"
    "document(\"shop.xml\")/shop/item[@price >= 10]/name/text()";
  check "positional" "wood" "document(\"shop.xml\")/shop/item[1]/tag[1]/text()";
  check "existence predicate" "chair\ntable"
    "document(\"shop.xml\")/shop/item[tag]/name/text()"

let test_flwor () =
  check "where + return" "mirror"
    "for $i in document(\"shop.xml\")/shop/item where $i/@price > 50 return $i/name/text()";
  check "let binding" "2"
    "for $s in document(\"shop.xml\")/shop let $n := $s/sale/ref return count($n)";
  check "join" "table\nmirror"
    "for $r in document(\"shop.xml\")/shop/sale/ref, $i in document(\"shop.xml\")/shop/item \
     where $r/@item = $i/@id return $i/name/text()";
  check "order by" "chair\nmirror\ntable"
    "for $i in document(\"shop.xml\")/shop/item let $n := $i/name/text() order by $n return $n";
  check "order by descending" "table\nmirror\nchair"
    "for $i in document(\"shop.xml\")/shop/item let $n := $i/name/text() order by $n descending return $n"

let test_aggregates () =
  check "count" "3" "count(document(\"shop.xml\")/shop/item)";
  check "sum" "115.49" "sum(document(\"shop.xml\")/shop/item/@price)";
  check "min" "5.00" "min(document(\"shop.xml\")/shop/item/@price)";
  check "max" "99.99" "max(document(\"shop.xml\")/shop/item/@price)";
  check "avg" "5" "avg((5, 5, 5))";
  check "distinct-values" "wood\nold"
    "distinct-values(document(\"shop.xml\")/shop/item/tag/text())"

let test_functions () =
  check "contains true" "true" "contains(document(\"shop.xml\")/shop/note, \"gold\")";
  check "contains false" "false" "contains(document(\"shop.xml\")/shop/note, \"silver\")";
  check "starts-with" "chair"
    "for $i in document(\"shop.xml\")/shop/item where starts-with($i/name/text(), \"ch\") return $i/name/text()";
  check "empty" "mirror"
    "for $i in document(\"shop.xml\")/shop/item where empty($i/tag) return $i/name/text()";
  check "exists" "chair\ntable"
    "for $i in document(\"shop.xml\")/shop/item where exists($i/tag) return $i/name/text()";
  check "string" "chair" "string(document(\"shop.xml\")/shop/item[1]/name)";
  check "name" "item" "name(document(\"shop.xml\")/shop/item[1])";
  check "number arithmetic" "21" "document(\"shop.xml\")/shop/item[1]/@price * 2"

let test_last_and_fulltext () =
  check "last()" "old" "document(\"shop.xml\")/shop/item[1]/tag[last()]/text()";
  check "first vs last" "true"
    "document(\"shop.xml\")/shop/item[1]/tag[1]/text() != document(\"shop.xml\")/shop/item[1]/tag[last()]/text()";
  check "ftcontains all words" "true"
    "ftcontains(document(\"shop.xml\")/shop/note, \"mirror gold\")";
  check "ftcontains case-insensitive" "true"
    "ftcontains(document(\"shop.xml\")/shop/note, \"GOLD\")";
  check "ftcontains missing word" "false"
    "ftcontains(document(\"shop.xml\")/shop/note, \"gold silver\")"

let test_quantifiers () =
  check "some true" "true"
    "some $t in document(\"shop.xml\")/shop/item/tag satisfies $t/text() = \"old\"";
  check "every false" "false"
    "every $t in document(\"shop.xml\")/shop/item/tag satisfies $t/text() = \"wood\"";
  check "if/then/else" "yes"
    "if (count(document(\"shop.xml\")/shop/item) = 3) then \"yes\" else \"no\""

let test_construction () =
  (* @price in content becomes an attribute per the XQuery rules *)
  check "constructor with attr and content" "<r n=\"chair\" price=\"10.50\"/>"
    "for $i in document(\"shop.xml\")/shop/item[1] return <r n=\"{$i/name/text()}\">{$i/@price}</r>";
  (* the attribute item rule: @id in content becomes an attribute *)
  check "attr item becomes attribute" "<r id=\"i1\"/>"
    "for $i in document(\"shop.xml\")/shop/item[1] return <r>{$i/@id}</r>";
  check "node copy reconstructs subtree"
    "<item id=\"i3\" price=\"99.99\"><name>mirror</name></item>"
    "document(\"shop.xml\")/shop/item[@id = \"i3\"]"

let test_nested_flwor_decorrelation () =
  (* the Q8 pattern: correlated inner FLWOR in a let *)
  check "decorrelated counts" "<c n=\"chair\">0</c>\n<c n=\"table\">1</c>\n<c n=\"mirror\">1</c>"
    "for $i in document(\"shop.xml\")/shop/item \
     let $r := for $s in document(\"shop.xml\")/shop/sale/ref where $s/@item = $i/@id return $s \
     return <c n=\"{$i/name/text()}\">{count($r)}</c>";
  (* the decorrelated inner FLWOR runs through the full clause pipeline:
     its order by holds in both directions, as in the naive evaluator;
     and join probes emit matches in the inner sequence's order *)
  let shop = Xmlkit.Parser.parse_string doc in
  let sales_by key =
    "for $s in document(\"shop.xml\")/shop/sale \
     let $o := for $j in document(\"shop.xml\")/shop/item where $j/@id = $s/ref/@item \
     order by " ^ key ^ " return $j/name/text() \
     return <s>{$o}</s>"
  in
  List.iter
    (fun (name, kind, q) ->
      let ast = Xquery.Parser.parse q in
      let (_, plan) = Executor.run_profiled (Lazy.force repo) ast in
      Alcotest.(check bool) (name ^ " runs as " ^ kind) true
        (Xquec_obs.Explain.fold (fun acc n -> acc || n.Xquec_obs.Explain.kind = kind) false plan);
      Alcotest.(check string) name
        (Baselines.Galax_like.serialize (Baselines.Galax_like.run ~docs:[ ("shop.xml", shop) ] ast))
        (run q))
    [
      ("order by ascending", "decorrelate", sales_by "$j/name/text() ascending");
      ("order by descending", "decorrelate", sales_by "$j/@id descending");
      ( "sorted probe in inner order",
        "sorted_probe",
        "for $r in document(\"shop.xml\")/shop/sale/ref, $j in document(\"shop.xml\")/shop/item \
         where $r/@item < $j/name/text() return <p>{$j/name/text()}</p>" );
    ]

(* The same queries must give identical answers whatever codec the
   containers use — compressed-domain operations are semantically
   transparent. *)
let test_algorithm_independence () =
  let queries =
    [
      "for $i in document(\"shop.xml\")/shop/item where $i/@price >= 10 return $i/name/text()";
      "document(\"shop.xml\")/shop/item[name = \"chair\"]/@price";
      "count(document(\"shop.xml\")/shop/item/tag)";
      "for $r in document(\"shop.xml\")/shop/sale/ref, $i in document(\"shop.xml\")/shop/item \
       where $r/@item = $i/@id return $i/name/text()";
    ]
  in
  let algorithms =
    [ Compress.Codec.Alm_alg; Compress.Codec.Huffman_alg; Compress.Codec.Arith_alg;
      Compress.Codec.Hu_tucker_alg ]
  in
  let results_for alg =
    let options = { Loader.default_string_algorithm = alg; detect_numeric = true; spill_directory = None } in
    let repo = Loader.load ~options ~name:"shop.xml" doc in
    List.map (fun q -> Executor.serialize repo (Executor.run_string repo q)) queries
  in
  let reference = results_for Compress.Codec.Alm_alg in
  List.iter
    (fun alg ->
      Alcotest.(check (list string))
        (Compress.Codec.algorithm_name alg ^ " agrees")
        reference (results_for alg))
    algorithms

let test_pushdown_agrees_with_generic () =
  (* the pushdown path (summary + container) and the per-node fallback
     must agree: compare a pushable predicate with its not-pushable
     twin (arithmetic on the right side defeats recognition) *)
  let a = run "document(\"shop.xml\")/shop/item[@price >= 10]/name/text()" in
  let b = run "document(\"shop.xml\")/shop/item[@price >= 5 + 5]/name/text()" in
  Alcotest.(check string) "pushdown = generic" a b

let test_errors () =
  (match Executor.run_string (Lazy.force repo) "$undefined" with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected Eval_error on unbound variable");
  match Executor.run_string (Lazy.force repo) "sum(document(\"shop.xml\")/shop/item) * (1,2)" with
  | exception Executor.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected Eval_error on non-singleton arithmetic"

let suites =
  [
    ( "executor",
      [
        Alcotest.test_case "paths" `Quick test_paths;
        Alcotest.test_case "predicates" `Quick test_predicates;
        Alcotest.test_case "flwor" `Quick test_flwor;
        Alcotest.test_case "aggregates" `Quick test_aggregates;
        Alcotest.test_case "functions" `Quick test_functions;
        Alcotest.test_case "quantifiers and conditionals" `Quick test_quantifiers;
        Alcotest.test_case "last() and full-text extension" `Quick test_last_and_fulltext;
        Alcotest.test_case "construction" `Quick test_construction;
        Alcotest.test_case "nested-flwor decorrelation" `Quick test_nested_flwor_decorrelation;
        Alcotest.test_case "algorithm independence" `Quick test_algorithm_independence;
        Alcotest.test_case "pushdown agrees with generic" `Quick test_pushdown_agrees_with_generic;
        Alcotest.test_case "errors" `Quick test_errors;
      ] );
  ]
