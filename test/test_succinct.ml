(* Succinct substrate of the v4 structure tree: bitvector rank/select,
   wavelet tag array, balanced-parentheses navigation. Mostly
   differential tests against naive reference implementations, plus the
   edge shapes (empty, single node, deep right spine, wide flat fan-out)
   that stress block and superblock boundaries. *)

open Storage

let rng = Random.State.make [| 0x5ecc; 0x7ee |]

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let check_bitvec ?(density = 0.5) len =
  let bits = Array.init len (fun _ -> Random.State.float rng 1.0 < density) in
  let bv = Bitvec.init len (fun i -> bits.(i)) in
  Alcotest.(check int) (Printf.sprintf "len %d" len) len (Bitvec.length bv);
  let r1 = ref 0 in
  for i = 0 to len do
    Alcotest.(check int) (Printf.sprintf "rank1 %d/%d" i len) !r1 (Bitvec.rank1 bv i);
    Alcotest.(check int) (Printf.sprintf "rank0 %d/%d" i len) (i - !r1) (Bitvec.rank0 bv i);
    if i < len then begin
      Alcotest.(check bool) "get" bits.(i) (Bitvec.get bv i);
      if bits.(i) then incr r1
    end
  done;
  let pos = ref 0 in
  for k = 1 to Bitvec.ones bv do
    while not bits.(!pos) do incr pos done;
    Alcotest.(check int) (Printf.sprintf "select1 %d" k) !pos (Bitvec.select1 bv k);
    incr pos
  done;
  let pos = ref 0 in
  for k = 1 to Bitvec.zeros bv do
    while bits.(!pos) do incr pos done;
    Alcotest.(check int) (Printf.sprintf "select0 %d" k) !pos (Bitvec.select0 bv k);
    incr pos
  done;
  let buf = Buffer.create 16 in
  Bitvec.serialize buf bv;
  let (bv2, consumed) = Bitvec.deserialize (Buffer.contents buf) 0 in
  Alcotest.(check int) "consumed all" (Buffer.length buf) consumed;
  Alcotest.(check int) "roundtrip len" len (Bitvec.length bv2);
  for i = 0 to len - 1 do
    Alcotest.(check bool) "roundtrip bit" bits.(i) (Bitvec.get bv2 i)
  done

let test_bitvec_differential () =
  (* edge lengths straddle byte, word (64) and superblock (512)
     boundaries; rank1 is checked at every i, i = len included, so
     whole-word and whole-superblock lengths hit the directories' entry
     past the last word. All-ones words exercise the popcount's top
     bit, sparse and dense vectors the select samples. *)
  List.iter (fun len -> check_bitvec len)
    [ 0; 1; 7; 8; 63; 64; 65; 128; 511; 512; 513; 1000; 1024; 1536; 5000; 20000 ];
  List.iter
    (fun density -> List.iter (check_bitvec ~density) [ 64; 448; 512; 4096 ])
    [ 0.0; 0.02; 0.98; 1.0 ]

let test_corrupt_lengths_typed () =
  (* a 9-byte varint decoding negative, and a truncated varint, are
     corruption ([Failure]), not [Invalid_argument] *)
  let negative = String.make 8 '\xff' ^ "\x40" in
  let failure name f =
    match f () with
    | _ -> Alcotest.fail (name ^ ": accepted")
    | exception Failure _ -> ()
    | exception e -> Alcotest.fail (name ^ ": raised " ^ Printexc.to_string e)
  in
  failure "Bitvec negative length" (fun () -> ignore (Bitvec.deserialize negative 0));
  failure "Wavelet negative length" (fun () -> ignore (Bitvec.Wavelet.deserialize negative 0));
  failure "Wavelet negative width" (fun () ->
      ignore (Bitvec.Wavelet.deserialize ("\x01" ^ negative) 0));
  failure "Bitvec truncated varint" (fun () -> ignore (Bitvec.deserialize "\xff" 0));
  failure "Wavelet truncated varint" (fun () -> ignore (Bitvec.Wavelet.deserialize "\xff" 0));
  failure "Bitvec oversized length" (fun () -> ignore (Bitvec.deserialize "\xff\x7f\x00" 0));
  failure "Bitvec read past end" (fun () -> ignore (Bitvec.deserialize "\x08" 5))

(* ------------------------------------------------------------------ *)
(* Wavelet                                                             *)
(* ------------------------------------------------------------------ *)

(* Differential check of access/rank/select against linear scans;
   [probe] lists the codes to rank and select, present or not. *)
let check_wavelet_codes ~width codes ~probe =
  let n = Array.length codes in
  let wt = Bitvec.Wavelet.build ~width codes in
  for i = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "access %d" i) codes.(i) (Bitvec.Wavelet.access wt i)
  done;
  List.iter
    (fun c ->
      let cnt = ref 0 in
      for i = 0 to n do
        Alcotest.(check int)
          (Printf.sprintf "rank c=%d i=%d" c i)
          !cnt
          (Bitvec.Wavelet.rank wt ~code:c i);
        if i < n && codes.(i) = c then incr cnt
      done;
      let k = ref 0 in
      Array.iteri
        (fun i ci ->
          if ci = c then begin
            incr k;
            Alcotest.(check (option int))
              (Printf.sprintf "select c=%d k=%d" c !k)
              (Some i)
              (Bitvec.Wavelet.select wt ~code:c !k)
          end)
        codes;
      Alcotest.(check (option int)) "select past end" None
        (Bitvec.Wavelet.select wt ~code:c (!k + 1)))
    probe;
  let buf = Buffer.create 16 in
  Bitvec.Wavelet.serialize buf wt;
  let (wt2, consumed) = Bitvec.Wavelet.deserialize (Buffer.contents buf) 0 in
  Alcotest.(check int) "wavelet consumed all" (Buffer.length buf) consumed;
  for i = 0 to n - 1 do
    Alcotest.(check int) "wavelet roundtrip" codes.(i) (Bitvec.Wavelet.access wt2 i)
  done

let check_wavelet n sigma =
  let codes = Array.init n (fun _ -> Random.State.int rng sigma) in
  check_wavelet_codes ~width:(Bitvec.Wavelet.width_for (sigma - 1)) codes
    ~probe:(List.init sigma Fun.id)

let test_wavelet_sparse_alphabet () =
  (* five codes spread over a width-8 alphabet: most wavelet nodes are
     empty, so descents for absent codes run into the node directory's
     empty-child (-1) entries *)
  let alphabet = [| 0; 1; 37; 200; 255 |] in
  List.iter
    (fun n ->
      let codes = Array.init n (fun _ -> alphabet.(Random.State.int rng 5)) in
      check_wavelet_codes ~width:8 codes ~probe:(List.init 256 Fun.id))
    [ 1; 63; 64; 65; 700 ];
  (* a single repeated code leaves one path of non-empty nodes *)
  check_wavelet_codes ~width:8 (Array.make 100 37) ~probe:[ 0; 36; 37; 38; 255 ]

let test_wavelet_differential () =
  List.iter
    (fun (n, sigma) -> check_wavelet n sigma)
    [ (0, 4); (1, 1); (1, 3); (100, 2); (500, 90); (3000, 7); (2000, 128) ]

(* ------------------------------------------------------------------ *)
(* Bp_tree                                                             *)
(* ------------------------------------------------------------------ *)

(* Differential check of every navigation op against a naive pointer
   tree described by a pre-order parent array. *)
let check_bp (parents : int array) =
  let n = Array.length parents in
  let children = Array.make (max n 1) [] in
  for i = n - 1 downto 1 do
    children.(parents.(i)) <- i :: children.(parents.(i))
  done;
  let bits = Array.make (2 * n) false in
  let pos = ref 0 in
  let rec emit i =
    bits.(!pos) <- true;
    incr pos;
    List.iter emit children.(i);
    incr pos
  in
  if n > 0 then emit 0;
  let bp = Bp_tree.of_bits (Bitvec.init (2 * n) (fun i -> bits.(i))) in
  Alcotest.(check int) "node count" n (Bp_tree.node_count bp);
  let depth = Array.make (max n 1) 0 in
  for i = 1 to n - 1 do
    depth.(i) <- depth.(parents.(i)) + 1
  done;
  let last = Array.init (max n 1) (fun i -> i) in
  for i = n - 1 downto 1 do
    let p = parents.(i) in
    if last.(i) > last.(p) then last.(p) <- last.(i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check int) "parent" (if i = 0 then -1 else parents.(i)) (Bp_tree.parent bp i);
    Alcotest.(check int) "depth" depth.(i) (Bp_tree.depth bp i);
    Alcotest.(check (list int)) "children" children.(i) (Bp_tree.children bp i);
    Alcotest.(check int) "degree" (List.length children.(i)) (Bp_tree.degree bp i);
    Alcotest.(check (option int)) "first_child"
      (match children.(i) with [] -> None | c :: _ -> Some c)
      (Bp_tree.first_child bp i);
    Alcotest.(check int) "last_descendant" last.(i) (Bp_tree.last_descendant bp i);
    Alcotest.(check int) "subtree_size" (last.(i) - i + 1) (Bp_tree.subtree_size bp i);
    let ns =
      if i = 0 then None
      else
        let rec after = function
          | x :: y :: _ when x = i -> Some y
          | _ :: tl -> after tl
          | [] -> None
        in
        after children.(parents.(i))
    in
    Alcotest.(check (option int)) "next_sibling" ns (Bp_tree.next_sibling bp i);
    let p = Bp_tree.pos_of_node bp i in
    Alcotest.(check int) "node_of_open" i (Bp_tree.node_of_open bp p)
  done;
  for _ = 1 to min 2000 (n * n) do
    let a = Random.State.int rng (max n 1) and d = Random.State.int rng (max n 1) in
    Alcotest.(check bool) "is_ancestor"
      (a < d && last.(a) >= d)
      (Bp_tree.is_ancestor bp ~ancestor:a ~descendant:d)
  done

(* Random pre-order parent arrays: each node's parent is drawn from the
   rightmost path so ids stay pre-order ranks. *)
let random_preorder_parents n =
  let parents = Array.make n (-1) in
  let stack = ref [ 0 ] in
  for i = 1 to n - 1 do
    let len = List.length !stack in
    let pops = if Random.State.bool rng then 0 else Random.State.int rng len in
    for _ = 1 to pops do
      stack := List.tl !stack
    done;
    parents.(i) <- List.hd !stack;
    stack := i :: !stack
  done;
  parents

let test_bp_edge_shapes () =
  check_bp [||];
  (* empty tree *)
  check_bp [| -1 |];
  (* single node *)
  check_bp [| -1; 0 |];
  check_bp [| -1; 0; 0 |];
  check_bp [| -1; 0; 1 |]

let test_bp_deep_spine () =
  (* right spine >= 10^4 nodes: excess grows monotonically across many
     256-bit blocks, the worst case for bwd_search (parent/enclose) *)
  check_bp (Array.init 12000 (fun i -> i - 1))

let test_bp_wide_flat () =
  (* one root with thousands of leaf children: findclose of the root
     spans the whole sequence, siblings chain across blocks *)
  check_bp (Array.init 5000 (fun i -> if i = 0 then -1 else 0))

let test_bp_random_trees () =
  List.iter (fun n -> check_bp (random_preorder_parents n)) [ 50; 200; 1000; 4000; 20000 ]

(* Random balanced sequences of [len] bits (even), one tree or a forest,
   opens drawn with probability [p_open] while both are possible. *)
let random_bp ~len ~p_open ~forest =
  let bits = Array.make len false in
  let e = ref 0 in
  for j = 0 to len - 1 do
    let remaining = len - j in
    let must_close = !e >= remaining in
    let can_close = !e > (if forest || j = 0 then 0 else 1) || (!e = 1 && remaining = 1) in
    let opn =
      if must_close then false
      else if !e = 0 then true
      else if not can_close then true
      else Random.State.float rng 1.0 < p_open
    in
    bits.(j) <- opn;
    e := !e + if opn then 1 else -1
  done;
  bits

(* findclose / enclose / parent (fwd_search and bwd_search) against a
   stack scan of the same bits, at every node. *)
let check_bp_excess_vs_scan bits =
  let len = Array.length bits in
  let bp = Bp_tree.of_bits (Bitvec.init len (fun i -> bits.(i))) in
  let close = Array.make len (-1) and encl = Array.make len (-1) in
  let node = Array.make len (-1) and opens = ref [] and stack = ref [] in
  Array.iteri
    (fun j b ->
      if b then begin
        encl.(j) <- (match !stack with q :: _ -> q | [] -> -1);
        node.(j) <- List.length !opens;
        opens := j :: !opens;
        stack := j :: !stack
      end
      else
        match !stack with
        | q :: rest ->
          close.(q) <- j;
          stack := rest
        | [] -> Alcotest.fail "generator produced an unbalanced sequence")
    bits;
  let opens = Array.of_list (List.rev !opens) in
  Alcotest.(check int) "node count" (Array.length opens) (Bp_tree.node_count bp);
  Array.iteri
    (fun i p ->
      let tag = Printf.sprintf "len %d node %d" len i in
      Alcotest.(check int) (tag ^ " pos_of_node") p (Bp_tree.pos_of_node bp i);
      Alcotest.(check int) (tag ^ " node_of_open") i (Bp_tree.node_of_open bp p);
      Alcotest.(check int) (tag ^ " findclose") close.(p) (Bp_tree.findclose bp p);
      Alcotest.(check (option int)) (tag ^ " enclose")
        (if encl.(p) < 0 then None else Some encl.(p))
        (Bp_tree.enclose bp p);
      Alcotest.(check int) (tag ^ " parent")
        (if encl.(p) < 0 then -1 else node.(encl.(p)))
        (Bp_tree.parent bp i);
      Alcotest.(check int) (tag ^ " subtree_size") ((close.(p) - p + 1) / 2)
        (Bp_tree.subtree_size bp i);
      let kids = ref [] and q = ref (p + 1) in
      while bits.(!q) do
        kids := node.(!q) :: !kids;
        q := close.(!q) + 1
      done;
      Alcotest.(check (list int)) (tag ^ " children") (List.rev !kids) (Bp_tree.children bp i);
      Alcotest.(check (option int)) (tag ^ " next_sibling")
        (if close.(p) + 1 < len && bits.(close.(p) + 1) then Some node.(close.(p) + 1) else None)
        (Bp_tree.next_sibling bp i))
    opens

let test_bp_excess_vs_naive_scan () =
  (* bit lengths = 2, 4, 6 (mod 8), so the last byte is partial, and
     straddling the 64-bit word and 256-bit block boundaries; shallow
     and deep shapes, single trees and forests *)
  List.iter
    (fun len ->
      Alcotest.(check bool) "partial last byte" true (len mod 8 <> 0);
      List.iter
        (fun (p_open, forest) -> check_bp_excess_vs_scan (random_bp ~len ~p_open ~forest))
        [ (0.5, false); (0.5, true); (0.8, false); (0.3, false); (0.95, false) ])
    [ 2; 6; 58; 62; 66; 70; 250; 252; 254; 258; 260; 262; 514; 1020; 1030; 2050; 4094 ]

let test_bp_rejects_malformed () =
  let of_bools l =
    let a = Array.of_list l in
    Bitvec.init (Array.length a) (fun i -> a.(i))
  in
  List.iter
    (fun bits ->
      Alcotest.check_raises "malformed BP" (Failure "Bp_tree.of_bits: close before open")
        (fun () -> ignore (Bp_tree.of_bits (of_bools bits))))
    [ [ false; true ]; [ true; false; false; true ] ];
  Alcotest.check_raises "odd length" (Failure "Bp_tree.of_bits: odd length") (fun () ->
      ignore (Bp_tree.of_bits (of_bools [ true ])));
  Alcotest.check_raises "unbalanced" (Failure "Bp_tree.of_bits: unbalanced") (fun () ->
      ignore (Bp_tree.of_bits (of_bools [ true; true ])))

(* ------------------------------------------------------------------ *)
(* Succinct structure tree vs the explicit builder arrays              *)
(* ------------------------------------------------------------------ *)

let test_tree_differential_vs_pointer_semantics () =
  (* build a structure tree from an XMark document and check the
     succinct navigation against references computed from child_entries
     alone (the explicit pointer semantics of the v3 tree) *)
  let xml = Xmark.Xmlgen.generate ~scale:0.05 () in
  let repo = Xquec_core.Loader.load ~name:"a" xml in
  let tree = repo.Repository.tree in
  let n = Structure_tree.node_count tree in
  Alcotest.(check bool) "non-trivial" true (n > 1000);
  (* reference arrays from the raw child entries *)
  let kids = Array.init n (fun id -> Structure_tree.child_nodes tree id) in
  let parents = Array.make n (-1) in
  Array.iteri (fun id cs -> List.iter (fun c -> parents.(c) <- id) cs) kids;
  let last = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    if last.(i) > last.(parents.(i)) then last.(parents.(i)) <- last.(i)
  done;
  let level = Array.make n 0 in
  for i = 1 to n - 1 do
    level.(i) <- level.(parents.(i)) + 1
  done;
  for id = 0 to n - 1 do
    Alcotest.(check int) "parent" parents.(id) (Structure_tree.parent tree id);
    Alcotest.(check int) "level" level.(id) (Structure_tree.level tree id);
    Alcotest.(check int) "last_descendant" last.(id) (Structure_tree.last_descendant tree id);
    Alcotest.(check int) "subtree_size" (last.(id) - id + 1) (Structure_tree.subtree_size tree id);
    Alcotest.(check (option int)) "first_child"
      (match kids.(id) with [] -> None | c :: _ -> Some c)
      (Structure_tree.first_child tree id)
  done;
  (* descendants_with_tag agrees with the filter-based definition for
     every tag that occurs *)
  let dict = repo.Repository.dict in
  List.iter
    (fun name ->
      match Storage.Name_dict.code dict name with
      | None -> ()
      | Some code ->
        let naive =
          Structure_tree.descendants tree 0
          |> List.filter (fun d -> Structure_tree.tag tree d = code)
        in
        Alcotest.(check (list int))
          ("descendants_with_tag " ^ name)
          naive
          (Structure_tree.descendants_with_tag tree 0 code))
    [ "site"; "people"; "person"; "name"; "@id"; "item"; "description" ]

let suites =
  [
    ( "succinct",
      [
        Alcotest.test_case "bitvec rank/select differential" `Quick test_bitvec_differential;
        Alcotest.test_case "bitvec/wavelet corrupt lengths are typed" `Quick
          test_corrupt_lengths_typed;
        Alcotest.test_case "wavelet differential" `Quick test_wavelet_differential;
        Alcotest.test_case "wavelet sparse alphabet" `Quick test_wavelet_sparse_alphabet;
        Alcotest.test_case "bp edge shapes" `Quick test_bp_edge_shapes;
        Alcotest.test_case "bp deep right spine" `Quick test_bp_deep_spine;
        Alcotest.test_case "bp wide flat tree" `Quick test_bp_wide_flat;
        Alcotest.test_case "bp random trees" `Quick test_bp_random_trees;
        Alcotest.test_case "bp excess search vs naive scan" `Quick
          test_bp_excess_vs_naive_scan;
        Alcotest.test_case "bp rejects malformed input" `Quick test_bp_rejects_malformed;
        Alcotest.test_case "tree navigation differential" `Quick
          test_tree_differential_vs_pointer_semantics;
      ] );
  ]
