(* Tests for the storage layer: name dictionary, containers,
   structure tree, summary and full-repository serialization. *)

open Storage

(* ------------------------------------------------------------------ *)
(* Name dictionary                                                     *)
(* ------------------------------------------------------------------ *)

let test_name_dict () =
  let d = Name_dict.create () in
  let a = Name_dict.intern d "site" in
  let b = Name_dict.intern d "person" in
  let a' = Name_dict.intern d "site" in
  Alcotest.(check int) "stable" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "name" "person" (Name_dict.name d b);
  Alcotest.(check (option int)) "code" (Some b) (Name_dict.code d "person");
  Alcotest.(check (option int)) "missing" None (Name_dict.code d "nope")

let test_name_dict_bits () =
  let d = Name_dict.create () in
  for i = 0 to 91 do
    ignore (Name_dict.intern d (Printf.sprintf "tag%d" i))
  done;
  (* the paper's example: 92 names fit on 7 bits *)
  Alcotest.(check int) "92 names on 7 bits" 7 (Name_dict.bits_per_code d)

(* ------------------------------------------------------------------ *)
(* Containers                                                          *)
(* ------------------------------------------------------------------ *)

let sample_container algorithm =
  Container.build ~id:0 ~path:"/a/b/#text" ~kind:Container.Text ~algorithm
    [ ("delta", 1); ("alpha", 2); ("charlie", 3); ("bravo", 4); ("alpha", 5) ]

let test_container_sorted () =
  let c = sample_container Compress.Codec.Alm_alg in
  let codes = Array.to_list (Container.scan c) |> List.map (fun r -> r.Container.code) in
  Alcotest.(check bool) "sorted by code" true
    (List.sort String.compare codes = codes);
  (* order-preserving codec: code order = plaintext order *)
  let values = Array.to_list (Container.scan c) |> List.map (Container.decompress_record c) in
  Alcotest.(check (list string)) "plaintext order" [ "alpha"; "alpha"; "bravo"; "charlie"; "delta" ]
    values

let test_container_lookup_eq () =
  let c = sample_container Compress.Codec.Alm_alg in
  let hits = Container.lookup_eq c (Container.compress_constant c "alpha") in
  Alcotest.(check int) "two alphas" 2 (List.length hits);
  Alcotest.(check (list int)) "parents" [ 2; 5 ]
    (List.map (fun r -> r.Container.parent) hits |> List.sort compare);
  Alcotest.(check int) "no miss" 0
    (List.length (Container.lookup_eq c (Container.compress_constant c "zulu")))

let test_container_lookup_range () =
  let c = sample_container Compress.Codec.Alm_alg in
  let lo = Container.compress_constant c "b" in
  let hi = Container.compress_constant c "d" in
  let hits = Container.lookup_range c ~lo ~hi () in
  let values = List.map (Container.decompress_record c) hits in
  Alcotest.(check (list string)) "range [b,d)" [ "bravo"; "charlie" ] values

let test_container_recompress () =
  let c = sample_container Compress.Codec.Alm_alg in
  let before = Container.dump c in
  let model = Compress.Codec.train Compress.Codec.Huffman_alg (List.map fst before) in
  let remap = Container.recompress c ~algorithm:Compress.Codec.Huffman_alg ~model ~model_id:9 in
  Alcotest.(check int) "remap size" 5 (Array.length remap);
  let after = Container.dump c in
  Alcotest.(check bool) "same multiset" true
    (List.sort compare before = List.sort compare after);
  (* the permutation maps old positions to the same (value, parent) *)
  let before_arr = Array.of_list before in
  Array.iteri
    (fun old_idx new_idx ->
      let r = (Container.scan c).(new_idx) in
      let (v, p) = before_arr.(old_idx) in
      Alcotest.(check string) "value follows remap" v (Container.decompress_record c r);
      Alcotest.(check int) "parent follows remap" p r.Container.parent)
    remap

(* ------------------------------------------------------------------ *)
(* Blocks and the buffer pool                                          *)
(* ------------------------------------------------------------------ *)

(* a container with many tiny values and a 1-byte block budget: every
   record lands in its own block *)
let blocky_container ?(n = 40) () =
  let values = List.init n (fun i -> (Printf.sprintf "v%03d" i, i + 1)) in
  Container.build ~block_size:1 ~id:0 ~path:"/a/b/#text" ~kind:Container.Text
    ~algorithm:Compress.Codec.Alm_alg values

let test_container_blocks () =
  let c = blocky_container () in
  Alcotest.(check int) "one record per block" 40 (Container.block_count c);
  (* headers partition the index space *)
  let next = ref 0 in
  Array.iter
    (fun (b : Container.block) ->
      Alcotest.(check int) "contiguous" !next b.Container.b_start;
      next := b.Container.b_start + b.Container.b_count)
    c.Container.blocks;
  Alcotest.(check int) "covers all records" (Container.length c) !next;
  (* random access agrees with a full scan *)
  let all = Container.scan c in
  for i = 0 to Container.length c - 1 do
    Alcotest.(check string) "get = scan" all.(i).Container.code (Container.get c i).Container.code
  done;
  (* range decodes agree too *)
  let r = Container.range c ~lo:5 ~hi:12 in
  Alcotest.(check int) "range size" 7 (List.length r);
  List.iteri
    (fun k (r : Container.record) ->
      Alcotest.(check string) "range = scan slice" all.(5 + k).Container.code r.Container.code)
    r

let test_block_pruning () =
  let c = blocky_container () in
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let hits = Container.lookup_eq c (Container.compress_constant c "v007") in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one match" 1 (List.length hits);
  (* min/max pruning: at most a couple of the 40 blocks decode *)
  let decoded = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "decodes at most 2 of 40 blocks" true (decoded <= 2);
  Alcotest.(check bool) "pruned most blocks" true
    (s1.Buffer_pool.s_blocks_skipped - s0.Buffer_pool.s_blocks_skipped >= 38);
  (* a range lookup is also pruned *)
  let s2 = Buffer_pool.snapshot () in
  let lo = Container.compress_constant c "v010" in
  let hi = Container.compress_constant c "v015" in
  let rs = Container.lookup_range c ~lo ~hi () in
  let s3 = Buffer_pool.snapshot () in
  Alcotest.(check int) "five in range" 5 (List.length rs);
  Alcotest.(check bool) "range pruned too" true
    (s3.Buffer_pool.s_blocks_skipped - s2.Buffer_pool.s_blocks_skipped >= 30)

let test_buffer_pool_hits_and_eviction () =
  let saved = Buffer_pool.budget_bytes () in
  Buffer_pool.clear ();
  let uid = Buffer_pool.fresh_uid () in
  let mk i =
    (* a decoded block charging exactly 100 bytes *)
    { Buffer_pool.codes = [| Printf.sprintf "c%d" i |]; parents = [| i |]; d_bytes = 100 }
  in
  let decodes = ref 0 in
  let fetch i =
    Buffer_pool.fetch ~uid ~gen:0 ~blk:i (fun () -> incr decodes; mk i)
  in
  Fun.protect ~finally:(fun () ->
      Buffer_pool.set_budget ~bytes:saved;
      Buffer_pool.clear ())
  @@ fun () ->
  Buffer_pool.set_budget ~bytes:250;
  let s0 = Buffer_pool.snapshot () in
  ignore (fetch 0);
  ignore (fetch 0);
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "second fetch hits" 1 (s1.Buffer_pool.s_hits - s0.Buffer_pool.s_hits);
  Alcotest.(check int) "one decode" 1 !decodes;
  Alcotest.(check int) "byte accounting" 100 s1.Buffer_pool.s_resident_bytes;
  (* 250-byte budget holds two 100-byte blocks; the third evicts the LRU *)
  ignore (fetch 1);
  ignore (fetch 0) (* touch 0: block 1 becomes LRU *);
  ignore (fetch 2);
  let s2 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one eviction" 1 (s2.Buffer_pool.s_evictions - s1.Buffer_pool.s_evictions);
  Alcotest.(check int) "two resident" 2 s2.Buffer_pool.s_resident_blocks;
  (* block 1 was evicted (LRU), 0 and 2 still hit *)
  ignore (fetch 0);
  ignore (fetch 2);
  let s3 = Buffer_pool.snapshot () in
  Alcotest.(check int) "0 and 2 hit" 2 (s3.Buffer_pool.s_hits - s2.Buffer_pool.s_hits);
  ignore (fetch 1);
  let s4 = Buffer_pool.snapshot () in
  Alcotest.(check int) "1 re-decodes" 1 (s4.Buffer_pool.s_misses - s3.Buffer_pool.s_misses);
  (* invalidation drops the container's blocks *)
  Buffer_pool.invalidate ~uid;
  Alcotest.(check int) "invalidate empties" 0 (Buffer_pool.snapshot ()).Buffer_pool.s_resident_blocks

let test_scan_resistant_admission () =
  let saved = Buffer_pool.budget_bytes () in
  Buffer_pool.clear ();
  let uid = Buffer_pool.fresh_uid () in
  let mk i =
    { Buffer_pool.codes = [| Printf.sprintf "c%d" i |]; parents = [| i |]; d_bytes = 100 }
  in
  let fetch ?admission i = Buffer_pool.fetch ?admission ~uid ~gen:0 ~blk:i (fun () -> mk i) in
  Fun.protect ~finally:(fun () ->
      Buffer_pool.set_budget ~bytes:saved;
      Buffer_pool.clear ())
  @@ fun () ->
  (* 250-byte budget: exactly the two-block hot set *)
  Buffer_pool.set_budget ~bytes:250;
  ignore (fetch 0);
  ignore (fetch 1);
  let s0 = Buffer_pool.snapshot () in
  (* a "scan" sweeps 5 cold blocks with Tail admission: each enters at
     the LRU end and is itself the first eviction victim, so the hot
     set never leaves the pool *)
  for i = 10 to 14 do
    ignore (fetch ~admission:Buffer_pool.Tail i)
  done;
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "scan inserts counted" 5
    (s1.Buffer_pool.s_scan_inserts - s0.Buffer_pool.s_scan_inserts);
  Alcotest.(check bool) "stays within budget" true (s1.Buffer_pool.s_resident_bytes <= 250);
  ignore (fetch 0);
  ignore (fetch 1);
  let s2 = Buffer_pool.snapshot () in
  Alcotest.(check int) "hot set survives the scan (hits)" 2
    (s2.Buffer_pool.s_hits - s1.Buffer_pool.s_hits);
  Alcotest.(check int) "hot set survives the scan (no re-decode)" 0
    (s2.Buffer_pool.s_misses - s1.Buffer_pool.s_misses);
  (* a hit on a tail-admitted block still promotes it to MRU *)
  Buffer_pool.set_budget ~bytes:350;
  ignore (fetch ~admission:Buffer_pool.Tail 10) (* resident: 1, 0, 10(tail) *);
  ignore (fetch 10) (* hit: promoted to MRU *);
  ignore (fetch 2) (* over budget: evicts the true LRU (block 0), not 10 *);
  let s3 = Buffer_pool.snapshot () in
  ignore (fetch 10);
  let s4 = Buffer_pool.snapshot () in
  Alcotest.(check int) "promoted scan block survives eviction" 1
    (s4.Buffer_pool.s_hits - s3.Buffer_pool.s_hits);
  ignore (fetch 0);
  let s5 = Buffer_pool.snapshot () in
  Alcotest.(check int) "unpromoted LRU block was the victim" 1
    (s5.Buffer_pool.s_misses - s4.Buffer_pool.s_misses)

let test_scan_admission_via_container () =
  let c = blocky_container () in
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  ignore (Container.scan c);
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "every scan decode is tail-admitted"
    (s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses)
    (s1.Buffer_pool.s_scan_inserts - s0.Buffer_pool.s_scan_inserts);
  Alcotest.(check bool) "payload bytes accounted" true
    (s1.Buffer_pool.s_payload_bytes - s0.Buffer_pool.s_payload_bytes > 0);
  (* a pruned point lookup charges the skipped blocks' payload bytes to
     the skipped counter, in the same (compressed payload) unit *)
  Buffer_pool.clear ();
  let s2 = Buffer_pool.snapshot () in
  ignore (Container.lookup_eq c (Container.compress_constant c "v007"));
  let s3 = Buffer_pool.snapshot () in
  Alcotest.(check bool) "pruning skipped blocks" true
    (s3.Buffer_pool.s_blocks_skipped - s2.Buffer_pool.s_blocks_skipped > 0);
  Alcotest.(check bool) "skipped payload bytes accounted" true
    (s3.Buffer_pool.s_skipped_bytes - s2.Buffer_pool.s_skipped_bytes > 0)

let test_executor_pruning_via_counters () =
  (* a selective pushed-down predicate must decode strictly less than the
     whole container (the acceptance criterion of the block design) *)
  let xml =
    "<r>"
    ^ String.concat ""
        (List.init 200 (fun i -> Printf.sprintf "<e a=\"key%03d\"/>" i))
    ^ "</r>"
  in
  let saved = Container.default_block_size () in
  Container.set_default_block_size 64;
  Fun.protect ~finally:(fun () -> Container.set_default_block_size saved)
  @@ fun () ->
  let repo = Xquec_core.Loader.load ~name:"t" xml in
  let k = Option.get (Repository.find_container_by_path repo "/r/e/@a") in
  Alcotest.(check bool) "container split into many blocks" true
    (Container.block_count k > 10);
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let items =
    Xquec_core.Executor.run_string repo "document(\"t\")/r/e[@a = \"key123\"]"
  in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one element matches" 1 (List.length items);
  let decoded = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "decoded a strict subset of blocks" true
    (decoded > 0 && decoded < Container.block_count k);
  Alcotest.(check bool) "skipped blocks were counted" true
    (s1.Buffer_pool.s_blocks_skipped - s0.Buffer_pool.s_blocks_skipped > 0)

(* ------------------------------------------------------------------ *)
(* Parallel decode: domain pool + thread-safe buffer pool              *)
(* ------------------------------------------------------------------ *)

let read_fixture name =
  let path = Filename.concat "fixtures" name in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Run [f] with the decode pool resized to [n] domains, restoring the
   ambient size (whatever $XQUEC_DECODE_DOMAINS / the host picked)
   afterwards so the other suites keep their configuration. *)
let with_pool_size n f =
  let saved = Domain_pool.size () in
  Domain_pool.set_size n;
  Fun.protect ~finally:(fun () -> Domain_pool.set_size saved) f

let record_list (rs : Container.record array) =
  Array.to_list rs |> List.map (fun (r : Container.record) -> (r.Container.code, r.Container.parent))

let test_parallel_scan_parity () =
  let c = blocky_container ~n:60 () in
  let reference =
    with_pool_size 0 (fun () ->
        Buffer_pool.clear ();
        record_list (Container.scan c))
  in
  List.iter
    (fun domains ->
      with_pool_size domains (fun () ->
          Buffer_pool.clear ();
          let cold = record_list (Container.scan c) in
          Alcotest.(check bool)
            (Printf.sprintf "cold scan identical at %d domains" domains)
            true (cold = reference);
          let warm = record_list (Container.scan c) in
          Alcotest.(check bool)
            (Printf.sprintf "warm scan identical at %d domains" domains)
            true (warm = reference);
          (* the pruned access paths agree too *)
          Buffer_pool.clear ();
          let eq = Container.lookup_eq c (Container.compress_constant c "v007") in
          Alcotest.(check int)
            (Printf.sprintf "lookup_eq at %d domains" domains)
            1 (List.length eq);
          Buffer_pool.clear ();
          let r = Container.range c ~lo:5 ~hi:35 in
          Alcotest.(check int)
            (Printf.sprintf "range size at %d domains" domains)
            30 (List.length r)))
    [ 1; 2; 4 ]

let test_parallel_latch_dedup () =
  (* N raw domains scanning the same cold container concurrently: the
     in-flight latches must dedup decodes, so the total number of misses
     (= decode thunk runs) stays <= the block count, and every domain
     sees the same records. *)
  let c = blocky_container ~n:50 () in
  with_pool_size 0 (fun () ->
      (* pool size 0: contention comes purely from the raw domains, so
         the miss accounting below isn't mixed with helper activity *)
      Buffer_pool.clear ();
      let reference = record_list (Container.scan c) in
      Buffer_pool.clear ();
      let s0 = Buffer_pool.snapshot () in
      let scans =
        List.init 4 (fun _ -> Domain.spawn (fun () -> record_list (Container.scan c)))
      in
      let results = List.map Domain.join scans in
      let s1 = Buffer_pool.snapshot () in
      List.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d scan identical" i)
            true (r = reference))
        results;
      let misses = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
      Alcotest.(check bool) "each block decoded at most once" true
        (misses <= Container.block_count c);
      (* 4 scans x 50 blocks = 200 accesses, each exactly one of
         hit / miss / latch wait *)
      let hits = s1.Buffer_pool.s_hits - s0.Buffer_pool.s_hits in
      let waits = s1.Buffer_pool.s_latch_waits - s0.Buffer_pool.s_latch_waits in
      Alcotest.(check int) "accesses partition into hit/miss/wait"
        (4 * Container.block_count c)
        (hits + misses + waits))

let test_prefetch_blocks () =
  let c = blocky_container ~n:30 () in
  with_pool_size 2 (fun () ->
      Buffer_pool.clear ();
      Container.prefetch_blocks c ~b0:0 ~b1:(Container.block_count c - 1);
      let s0 = Buffer_pool.snapshot () in
      ignore (Container.scan c);
      let s1 = Buffer_pool.snapshot () in
      Alcotest.(check int) "scan after prefetch decodes nothing" 0
        (s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses);
      Alcotest.(check int) "scan after prefetch all hits"
        (Container.block_count c)
        (s1.Buffer_pool.s_hits - s0.Buffer_pool.s_hits))

let test_sequential_parity_v1_fixture () =
  (* --decode-domains 0 on the v1 fixture must agree with a parallel
     pool, and must never block on a latch (no other domain exists). *)
  let data = read_fixture "v1_small.xqc" in
  let queries =
    [
      "document(\"v1_small.xml\")/site/people/person/name";
      "document(\"v1_small.xml\")/site/people/person[age > 30]/name";
      "document(\"v1_small.xml\")/site/people/person[@id = \"p2\"]";
    ]
  in
  let answers domains =
    with_pool_size domains (fun () ->
        Buffer_pool.clear ();
        let repo = Repository.deserialize data in
        let s0 = Buffer_pool.snapshot () in
        let out =
          List.map
            (fun q ->
              Xquec_core.Executor.serialize repo (Xquec_core.Executor.run_string repo q))
            queries
        in
        let s1 = Buffer_pool.snapshot () in
        (out, s1.Buffer_pool.s_latch_waits - s0.Buffer_pool.s_latch_waits))
  in
  let (seq, seq_waits) = answers 0 in
  let (par, _) = answers 4 in
  Alcotest.(check (list string)) "0-domain answers = 4-domain answers" seq par;
  Alcotest.(check int) "sequential path never waits on a latch" 0 seq_waits

(* ------------------------------------------------------------------ *)
(* distinct_parents precompute                                         *)
(* ------------------------------------------------------------------ *)

let test_distinct_parents_bit () =
  let distinct =
    Container.build ~id:0 ~path:"/a/b/#text" ~kind:Container.Text
      ~algorithm:Compress.Codec.Alm_alg
      [ ("x", 1); ("y", 2); ("z", 3) ]
  in
  Alcotest.(check bool) "distinct parents detected" true distinct.Container.distinct_parents;
  let dup =
    Container.build ~id:1 ~path:"/a/b/#text" ~kind:Container.Text
      ~algorithm:Compress.Codec.Alm_alg
      [ ("x", 1); ("y", 1); ("z", 3) ]
  in
  Alcotest.(check bool) "duplicate parent detected" false dup.Container.distinct_parents;
  (* recompress recomputes *)
  let before = Container.dump dup in
  let model = Compress.Codec.train Compress.Codec.Huffman_alg (List.map fst before) in
  ignore (Container.recompress dup ~algorithm:Compress.Codec.Huffman_alg ~model ~model_id:9);
  Alcotest.(check bool) "recompress keeps the bit honest" false dup.Container.distinct_parents

let container_bits (repo : Repository.t) =
  Array.to_list repo.Repository.containers
  |> List.map (fun (c : Container.t) -> (c.Container.path, c.Container.distinct_parents))
  |> List.sort compare

let test_distinct_parents_persisted () =
  (* the bit survives a v2 save/load, and is recomputed on v1 loads *)
  let xml = Xmark.Xmlgen.generate ~scale:0.03 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let repo' = Repository.deserialize (Repository.serialize repo) in
  Alcotest.(check bool) "v2 roundtrip preserves bits" true
    (container_bits repo = container_bits repo');
  let v1 = Repository.deserialize (read_fixture "v1_small.xqc") in
  let fresh = Xquec_core.Loader.load ~name:"v1_small.xml" (read_fixture "v1_small.xml") in
  Alcotest.(check bool) "v1 load recomputes the same bits" true
    (container_bits v1 = container_bits fresh)

let test_bare_element_predicate_pruned () =
  (* regression: bare-element predicates used to re-derive parent
     distinctness with a full Container.scan per query, decoding every
     block; with the precomputed bit they prune like attribute
     predicates *)
  let xml =
    "<r>"
    ^ String.concat ""
        (List.init 200 (fun i -> Printf.sprintf "<e><c>key%03d</c></e>" i))
    ^ "</r>"
  in
  let saved = Container.default_block_size () in
  Container.set_default_block_size 64;
  Fun.protect ~finally:(fun () -> Container.set_default_block_size saved)
  @@ fun () ->
  let repo = Xquec_core.Loader.load ~name:"t" xml in
  let k = Option.get (Repository.find_container_by_path repo "/r/e/c/#text") in
  Alcotest.(check bool) "container split into many blocks" true
    (Container.block_count k > 10);
  Alcotest.(check bool) "bit precomputed as distinct" true k.Container.distinct_parents;
  Buffer_pool.clear ();
  let s0 = Buffer_pool.snapshot () in
  let items = Xquec_core.Executor.run_string repo "document(\"t\")/r/e[c = \"key123\"]" in
  let s1 = Buffer_pool.snapshot () in
  Alcotest.(check int) "one element matches" 1 (List.length items);
  let decoded = s1.Buffer_pool.s_misses - s0.Buffer_pool.s_misses in
  Alcotest.(check bool) "bare-element predicate decodes a strict subset" true
    (decoded > 0 && decoded < Container.block_count k)

(* ------------------------------------------------------------------ *)
(* Structure tree + summary via the loader                             *)
(* ------------------------------------------------------------------ *)

let small_repo () =
  Xquec_core.Loader.load ~name:"t"
    "<a><b id=\"1\"><c>x</c><c>y</c></b><b id=\"2\"><c>z</c></b><d/></a>"

let test_tree_navigation () =
  let repo = small_repo () in
  let tree = repo.Repository.tree in
  let dict = repo.Repository.dict in
  let code n = Option.get (Name_dict.code dict n) in
  Alcotest.(check int) "node count (a,2xb,3xc,d,2x@id)" 9 (Structure_tree.node_count tree);
  let bs = Structure_tree.children_with_tag tree 0 (code "b") in
  Alcotest.(check int) "two b children" 2 (List.length bs);
  let b1 = List.hd bs in
  Alcotest.(check int) "parent of b" 0 (Structure_tree.parent tree b1);
  let cs = Structure_tree.children_with_tag tree b1 (code "c") in
  Alcotest.(check int) "two c under first b" 2 (List.length cs);
  (* ancestors via pre/post *)
  List.iter
    (fun c ->
      Alcotest.(check bool) "b ancestor of c" true
        (Structure_tree.is_ancestor tree ~ancestor:b1 ~descendant:c);
      Alcotest.(check bool) "a ancestor of c" true
        (Structure_tree.is_ancestor tree ~ancestor:0 ~descendant:c))
    cs;
  let all_desc = Structure_tree.descendants tree 0 in
  Alcotest.(check int) "descendants of root" 8 (List.length all_desc)

let test_summary_matching () =
  let repo = small_repo () in
  let s = repo.Repository.summary in
  let dict = repo.Repository.dict in
  let code n = Option.get (Name_dict.code dict n) in
  let is_attr c = (Name_dict.name dict c).[0] = '@' in
  let m = Summary.match_steps ~is_attr s [ `Child (code "a"); `Child (code "b") ] in
  Alcotest.(check int) "one b snode" 1 (List.length m);
  Alcotest.(check int) "b instances" 2 (Array.length (List.hd m).Summary.ids);
  let m = Summary.match_steps ~is_attr s [ `Desc (code "c") ] in
  Alcotest.(check int) "desc c snode" 1 (List.length m);
  Alcotest.(check int) "c instances" 3 (Array.length (List.hd m).Summary.ids);
  let m = Summary.match_steps ~is_attr s [ `Child (code "a"); `Child_any ] in
  Alcotest.(check int) "any children of a: b and d" 2 (List.length m)

let test_summary_node_count () =
  let repo = small_repo () in
  (* root + a + b + @id + c + c/#text? (text containers are not summary
     nodes) + d: the path tree is tiny compared to the document *)
  Alcotest.(check int) "summary nodes" 5 (Summary.node_count repo.Repository.summary - 1)

(* ------------------------------------------------------------------ *)
(* Repository serialization                                            *)
(* ------------------------------------------------------------------ *)

let test_repository_roundtrip () =
  let xml = Xmark.Xmlgen.generate ~scale:0.03 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let data = Repository.serialize repo in
  let repo' = Repository.deserialize data in
  Alcotest.(check int) "node count" (Structure_tree.node_count repo.Repository.tree)
    (Structure_tree.node_count repo'.Repository.tree);
  Alcotest.(check int) "containers" (Array.length repo.Repository.containers)
    (Array.length repo'.Repository.containers);
  (* queries give identical answers on the restored repository *)
  List.iter
    (fun (q : Xmark.Queries.query) ->
      let ast = Xquery.Parser.parse q.Xmark.Queries.text in
      let a = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast) in
      let b = Xquec_core.Executor.serialize repo' (Xquec_core.Executor.run repo' ast) in
      Alcotest.(check string) (q.Xmark.Queries.id ^ " identical after reload") a b)
    Xmark.Queries.all

(* The magic [Repository.serialize] writes: v4 is the only format. *)
let expected_magic = "XQC\x04"

let test_repository_byte_exact () =
  let xml = Xmark.Xmlgen.generate ~scale:0.03 () in
  let repo = Xquec_core.Loader.load ~name:"auction.xml" xml in
  let data = Repository.serialize repo in
  Alcotest.(check string) "v4 magic" expected_magic (String.sub data 0 4);
  let repo' = Repository.deserialize data in
  let data' = Repository.serialize repo' in
  Alcotest.(check bool) "save/load/save is byte-exact" true (String.equal data data')

let test_repository_v1_fixture () =
  (* a repository written by the pre-block (v1) format must still load *)
  let data = read_fixture "v1_small.xqc" in
  Alcotest.(check bool) "fixture is not v2" true (String.sub data 0 4 <> "XQC\x02");
  let repo = Repository.deserialize data in
  Alcotest.(check string) "source name" "v1_small.xml" repo.Repository.source_name;
  (* it answers queries like the freshly-loaded equivalent *)
  let fresh = Xquec_core.Loader.load ~name:"v1_small.xml" (read_fixture "v1_small.xml") in
  List.iter
    (fun q ->
      let a = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run_string repo q) in
      let b = Xquec_core.Executor.serialize fresh (Xquec_core.Executor.run_string fresh q) in
      Alcotest.(check string) (q ^ " matches fresh load") a b)
    [
      "document(\"v1_small.xml\")/site/people/person/name";
      "document(\"v1_small.xml\")/site/people/person[age > 30]/name";
      "document(\"v1_small.xml\")/site/people/person[@id = \"p2\"]";
    ];
  (* and re-saving upgrades it to the current format, which then
     round-trips byte-exactly *)
  let cur = Repository.serialize repo in
  Alcotest.(check string) "re-save upgrades to current format" expected_magic
    (String.sub cur 0 4);
  Alcotest.(check bool) "upgraded image round-trips" true
    (String.equal cur (Repository.serialize (Repository.deserialize cur)))

let test_size_breakdown_consistent () =
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let repo = Xquec_core.Loader.load ~name:"a" xml in
  let sz = Repository.size_breakdown repo in
  Alcotest.(check bool) "total = sum of parts" true
    (sz.Repository.total_bytes
    = sz.Repository.name_dict_bytes + sz.Repository.tree_bytes
      + sz.Repository.containers_bytes + sz.Repository.models_bytes
      + sz.Repository.summary_bytes + sz.Repository.index_bytes);
  Alcotest.(check bool) "essential < total" true
    (sz.Repository.essential_bytes < sz.Repository.total_bytes)

let test_repository_v3_fixture () =
  (* a committed v3 image (packed record tree) must keep loading now
     that only v4 is written *)
  let data = read_fixture "v3_small.xqc" in
  Alcotest.(check string) "fixture is v3" "XQC\x03" (String.sub data 0 4);
  let repo = Repository.deserialize data in
  Alcotest.(check string) "source name" "v3_small.xml" repo.Repository.source_name;
  (* it answers queries like the freshly-loaded equivalent — including
     mixed content, where the succinct tree must re-interleave text
     markers between element children *)
  let fresh = Xquec_core.Loader.load ~name:"v3_small.xml" (read_fixture "v3_small.xml") in
  List.iter
    (fun q ->
      let a = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run_string repo q) in
      let b = Xquec_core.Executor.serialize fresh (Xquec_core.Executor.run_string fresh q) in
      Alcotest.(check string) (q ^ " matches fresh load") a b)
    [
      "document(\"v3_small.xml\")/site/people/person/name";
      "document(\"v3_small.xml\")/site/people/person[age > 30]/bio";
      "document(\"v3_small.xml\")/site/people/person[@id = \"p2\"]";
      "document(\"v3_small.xml\")//item/price";
    ];
  (* re-saving upgrades it to v4, which then round-trips byte-exactly *)
  let cur = Repository.serialize repo in
  Alcotest.(check string) "re-save upgrades to v4" expected_magic (String.sub cur 0 4);
  Alcotest.(check bool) "upgraded image round-trips" true
    (String.equal cur (Repository.serialize (Repository.deserialize cur)))

(* The committed v4 fixture: test/fixtures/v4_small.xml (XMark, scale
   0.02, seed 1) compressed with the workload v4_small.xq by the v4
   writer. It pins the v4 bytes: any change to the succinct encoding,
   the codecs or the workload-driven configuration shows up here. *)
let v4_fixture_queries =
  [
    "for $p in document(\"v4_small.xml\")/site/people/person where $p/@id = \"person0\" \
     return $p/name";
    "document(\"v4_small.xml\")/site/regions//item/name";
    "for $o in document(\"v4_small.xml\")/site/open_auctions/open_auction where $o/initial \
     > 10 return $o/bidder/increase";
  ]

(* Stanzas of a workload file, separated by lines holding only ";;". *)
let workload_stanzas body =
  String.split_on_char '\n' body
  |> List.fold_left
       (fun (acc, cur) line ->
         if String.trim line = ";;" then (List.rev cur :: acc, []) else (acc, line :: cur))
       ([], [])
  |> (fun (acc, cur) -> List.rev (List.rev cur :: acc))
  |> List.filter_map (fun lines ->
         match String.trim (String.concat "\n" lines) with "" -> None | q -> Some q)

let test_repository_v4_fixture_answers () =
  let data = read_fixture "v4_small.xqc" in
  Alcotest.(check string) "fixture is v4" "XQC\x04" (String.sub data 0 4);
  let repo = Repository.deserialize data in
  let doc = Xmlkit.Parser.parse_string (read_fixture "v4_small.xml") in
  List.iter
    (fun q ->
      let ast = Xquery.Parser.parse q in
      let expected =
        Baselines.Galax_like.serialize
          (Baselines.Galax_like.run ~docs:[ ("v4_small.xml", doc) ] ast)
      in
      let got = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast) in
      Alcotest.(check bool) (q ^ " non-empty") true (got <> "");
      Alcotest.(check string) (q ^ " matches Galax-like") expected got)
    v4_fixture_queries

let test_repository_v4_fixture_resave () =
  let data = read_fixture "v4_small.xqc" in
  Alcotest.(check bool) "load -> save is byte-identical" true
    (String.equal data (Repository.serialize (Repository.deserialize data)))

let test_repository_v4_fixture_recompress () =
  let workload = workload_stanzas (read_fixture "v4_small.xq") in
  Alcotest.(check int) "workload stanzas" 3 (List.length workload);
  let engine =
    Xquec_core.Engine.load ~name:"v4_small.xml" ~workload (read_fixture "v4_small.xml")
  in
  Alcotest.(check bool) "compressing again is byte-identical" true
    (String.equal (read_fixture "v4_small.xqc")
       (Repository.serialize (Xquec_core.Engine.repo engine)))

(* An image whose ALM training reaches the 2^18-candidate cap, which
   v4_small.xqc never does: Datasets shakespeare (scale 1.5, seed 7,
   148 KB) compressed without a workload; its LINE text container holds
   86 KB of values. The digest is the MD5 of the image that `xquec
   generate -d shakespeare -s 1.5 --seed 7 -o shakespeare.xml` and
   `xquec compress shakespeare.xml` wrote at commit 66bdf81, the last
   with the Hashtbl miner. *)
let test_repository_cap_reaching_digest () =
  let xml = Xmark.Datasets.shakespeare ~seed:7 ~scale:1.5 () in
  let engine = Xquec_core.Engine.load ~name:"shakespeare.xml" xml in
  Alcotest.(check string) "image digest" "ee1d246e445c6fd95e192523b7eddc3b"
    (Digest.to_hex (Digest.string (Xquec_core.Engine.save engine)));
  let largest =
    Array.fold_left
      (fun (a : Container.t) (c : Container.t) ->
        if c.Container.plain_bytes > a.Container.plain_bytes then c else a)
      (Xquec_core.Engine.repo engine).Repository.containers.(0)
      (Xquec_core.Engine.repo engine).Repository.containers
  in
  let values = List.map fst (Container.dump largest) in
  let (_, counted) = Test_compress.with_candidates (fun () -> Compress.Alm.train values) in
  Alcotest.(check int) (largest.Container.path ^ " reaches the cap") (1 lsl 18) counted

(* test/fixtures/v2_xmark.xqc and v3_xmark.xqc hold the repository of
   v4_small.xqc written by the retired v2 (plain-varint tree, no flags
   byte) and v3 (packed record tree) writers. Loading either must answer
   the whole XMark workload like Galax_like on v4_small.xml, and
   re-saving must reproduce v4_small.xqc byte for byte. *)
let check_old_xmark_fixture ~name ~magic =
  let data = read_fixture name in
  Alcotest.(check string) (name ^ " magic") magic (String.sub data 0 4);
  let repo = Repository.deserialize data in
  let doc = Xmlkit.Parser.parse_string (read_fixture "v4_small.xml") in
  List.iter
    (fun (q : Xmark.Queries.query) ->
      let ast = Xquery.Parser.parse q.Xmark.Queries.text in
      let expected =
        Baselines.Galax_like.serialize
          (Baselines.Galax_like.run ~docs:[ ("auction.xml", doc) ] ast)
      in
      let got = Xquec_core.Executor.serialize repo (Xquec_core.Executor.run repo ast) in
      Alcotest.(check string) (name ^ " " ^ q.Xmark.Queries.id ^ " matches Galax-like")
        expected got)
    Xmark.Queries.all;
  Alcotest.(check bool) (name ^ " re-save is byte-identical to v4_small.xqc") true
    (String.equal (read_fixture "v4_small.xqc") (Repository.serialize repo))

let test_repository_v2_read_compat () =
  check_old_xmark_fixture ~name:"v2_xmark.xqc" ~magic:"XQC\x02"

let test_v3_v4_query_identity () =
  check_old_xmark_fixture ~name:"v3_xmark.xqc" ~magic:"XQC\x03";
  (* the v3 load answers exactly like the v4 image of the same document *)
  let v3 = Repository.deserialize (read_fixture "v3_xmark.xqc") in
  let v4 = Repository.deserialize (read_fixture "v4_small.xqc") in
  List.iter
    (fun (q : Xmark.Queries.query) ->
      let ast = Xquery.Parser.parse q.Xmark.Queries.text in
      let a = Xquec_core.Executor.serialize v3 (Xquec_core.Executor.run v3 ast) in
      let b = Xquec_core.Executor.serialize v4 (Xquec_core.Executor.run v4 ast) in
      Alcotest.(check string) (q.Xmark.Queries.id ^ " identical on v3 and v4") b a)
    Xmark.Queries.all

let test_packed_tree_roundtrip () =
  (* the legacy (v2), packed (v3) and succinct (v4) tree encodings of
     the same document decode to the same tree, field for field *)
  let tree name = (Repository.deserialize (read_fixture name)).Repository.tree in
  let t4 = tree "v4_small.xqc" in
  let n = Structure_tree.node_count t4 in
  List.iter
    (fun name ->
      let t = tree name in
      Alcotest.(check int) (name ^ " node count") n (Structure_tree.node_count t);
      for id = 0 to n - 1 do
        if Structure_tree.tag t4 id <> Structure_tree.tag t id
           || Structure_tree.parent t4 id <> Structure_tree.parent t id
           || Structure_tree.level t4 id <> Structure_tree.level t id
           || Structure_tree.value_pointers t4 id <> Structure_tree.value_pointers t id
           || Structure_tree.child_entries t4 id <> Structure_tree.child_entries t id
        then Alcotest.failf "node %d of %s differs from the v4 decode" id name
      done)
    [ "v2_xmark.xqc"; "v3_xmark.xqc" ]

let test_repository_framing_errors () =
  (* broken headers raise Failure, never Invalid_argument, and a flags
     byte that does not match the magic is not routed to another reader *)
  let v4 = read_fixture "v4_small.xqc" in
  let fails ~label ?msg data =
    match Repository.deserialize data with
    | _ -> Alcotest.failf "%s: loaded" label
    | exception Failure m -> (
      match msg with
      | Some want -> Alcotest.(check string) label want m
      | None -> ())
    | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  fails ~label:"magic without flags byte" "XQC\x04";
  fails ~label:"truncated after 40 bytes" (String.sub v4 0 40);
  let flags_zero = Bytes.of_string v4 in
  Bytes.set flags_zero 4 '\x00';
  fails ~label:"v4 magic with flags 0" ~msg:"repository: bad format flags"
    (Bytes.to_string flags_zero);
  let v3_flags_succinct = Bytes.of_string (read_fixture "v3_xmark.xqc") in
  Bytes.set v3_flags_succinct 4 '\x02';
  fails ~label:"v3 magic with the succinct flag" ~msg:"repository: bad format flags"
    (Bytes.to_string v3_flags_succinct)

let test_capped_bounds_conservative () =
  (* codes longer than the 8-byte header cap: the exact bit must clear
     and min/max pruning must stay conservative — equality lookups
     still find every value even though all bounds share one capped
     prefix *)
  let saved = Container.default_block_size () in
  Container.set_default_block_size 512;
  Fun.protect ~finally:(fun () -> Container.set_default_block_size saved)
  @@ fun () ->
  let values =
    List.init 100 (fun i ->
        (Printf.sprintf "a-very-long-shared-prefix-%04d-%020d" i i, i + 1))
  in
  let c =
    Container.build ~id:0 ~path:"/r/e/#text" ~kind:Container.Text
      ~algorithm:Compress.Codec.Alm_alg values
  in
  Alcotest.(check bool) "split into several blocks" true (Container.block_count c > 3);
  let hs = Container.headers c in
  Alcotest.(check bool) "long codes clear the exact bit" true
    (Array.exists (fun h -> not h.Container.h_exact) hs);
  Array.iter
    (fun h ->
      Alcotest.(check bool) "bounds capped at 8 bytes" true
        (String.length h.Container.h_min <= 8 && String.length h.Container.h_max <= 8))
    hs;
  (* every value still found through min/max pruning *)
  List.iter
    (fun (v, p) ->
      let hits = Container.lookup_eq c (Container.compress_constant c v) in
      Alcotest.(check (list int)) ("finds " ^ v) [ p ]
        (List.map (fun r -> r.Container.parent) hits))
    values;
  (* and a header-only join estimate over capped bounds reports itself
     inexact while still pairing every block with its equals *)
  let est = Xquec_core.Cost_model.block_join_estimate hs hs in
  Alcotest.(check bool) "estimate marked inexact" true
    (not est.Xquec_core.Cost_model.bj_exact);
  let paired_self =
    List.for_all
      (fun i -> List.mem (i, i) est.Xquec_core.Cost_model.bj_pairs)
      (List.init (Array.length hs) (fun i -> i))
  in
  Alcotest.(check bool) "every block pairs with itself" true paired_self

let suites =
  [
    ( "storage",
      [
        Alcotest.test_case "name dictionary" `Quick test_name_dict;
        Alcotest.test_case "name dictionary bits (paper example)" `Quick test_name_dict_bits;
        Alcotest.test_case "container is value-sorted" `Quick test_container_sorted;
        Alcotest.test_case "container equality lookup" `Quick test_container_lookup_eq;
        Alcotest.test_case "container range lookup" `Quick test_container_lookup_range;
        Alcotest.test_case "container recompression remap" `Quick test_container_recompress;
        Alcotest.test_case "block structure invariants" `Quick test_container_blocks;
        Alcotest.test_case "min/max block pruning" `Quick test_block_pruning;
        Alcotest.test_case "buffer pool LRU + accounting" `Quick test_buffer_pool_hits_and_eviction;
        Alcotest.test_case "scan-resistant tail admission" `Quick test_scan_resistant_admission;
        Alcotest.test_case "scan admission via container" `Quick test_scan_admission_via_container;
        Alcotest.test_case "executor pruning skips decodes" `Quick test_executor_pruning_via_counters;
        Alcotest.test_case "parallel scan parity (1/2/4 domains)" `Quick test_parallel_scan_parity;
        Alcotest.test_case "latch dedup under contention" `Quick test_parallel_latch_dedup;
        Alcotest.test_case "prefetch warms the pool" `Quick test_prefetch_blocks;
        Alcotest.test_case "decode-domains 0 parity on v1 fixture" `Quick test_sequential_parity_v1_fixture;
        Alcotest.test_case "distinct_parents precompute" `Quick test_distinct_parents_bit;
        Alcotest.test_case "distinct_parents persisted / recomputed" `Quick test_distinct_parents_persisted;
        Alcotest.test_case "bare-element predicate pruned" `Quick test_bare_element_predicate_pruned;
        Alcotest.test_case "structure tree navigation" `Quick test_tree_navigation;
        Alcotest.test_case "summary matching" `Quick test_summary_matching;
        Alcotest.test_case "summary is small" `Quick test_summary_node_count;
        Alcotest.test_case "repository roundtrip" `Slow test_repository_roundtrip;
        Alcotest.test_case "repository image byte-exact" `Quick test_repository_byte_exact;
        Alcotest.test_case "repository v1 fixture read" `Quick test_repository_v1_fixture;
        Alcotest.test_case "repository v2 read compat" `Quick test_repository_v2_read_compat;
        Alcotest.test_case "repository v3 fixture read" `Quick test_repository_v3_fixture;
        Alcotest.test_case "repository v4 fixture answers" `Quick
          test_repository_v4_fixture_answers;
        Alcotest.test_case "repository v4 fixture re-save" `Quick
          test_repository_v4_fixture_resave;
        Alcotest.test_case "repository v4 fixture re-compress" `Quick
          test_repository_v4_fixture_recompress;
        Alcotest.test_case "v3 vs v4 query identity" `Quick test_v3_v4_query_identity;
        Alcotest.test_case "size breakdown consistent" `Quick test_size_breakdown_consistent;
        Alcotest.test_case "packed tree round-trip" `Quick test_packed_tree_roundtrip;
        Alcotest.test_case "repository cap-reaching image digest" `Quick
          test_repository_cap_reaching_digest;
        Alcotest.test_case "repository framing errors are typed" `Quick
          test_repository_framing_errors;
        Alcotest.test_case "capped bounds stay conservative" `Quick test_capped_bounds_conservative;
      ] );
  ]
