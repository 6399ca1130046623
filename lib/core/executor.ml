(* XQueC query executor (§4): evaluates the XQuery subset directly over
   the compressed repository.

   The evaluation strategy realizes the paper's claims:
   - path expressions resolve against the structure summary, so queries
     never parse the whole structure tree (§2.3, Fig. 4);
   - value predicates are pushed into containers and evaluated on
     compressed codes whenever the container's algorithm supports the
     comparison class (eq / ineq / prefix-wildcard); otherwise the
     container is scanned and decompressed — the cost the §3 model and
     partitioner exist to avoid;
   - uncorrelated FOR/LET sources are evaluated once; value joins become
     hash joins (equality) or sorted-array lookups (inequality), probing
     compressed codes directly when both sides share a source model;
   - nested FLWORs correlated through a single comparison (the XMark
     Q8/Q9/Q10 pattern) are decorrelated into a build-once/probe-many
     join table;
   - decompression happens as late as possible: counting, equality and
     order tests run on codes; only results being returned (or values
     forced through string functions) are decompressed. *)

open Storage
open Xquery

type item =
  | Node of int  (** structure-tree node id *)
  | Cval of { cont : Container.t; code : string }  (** compressed value *)
  | Att of string * item  (** attribute node: name + (usually compressed) value *)
  | Str of string
  | Num of float
  | Bool of bool
  | Elem of Xmlkit.Tree.t  (** constructed element *)

(* A sequence with provenance: [snodes] are the summary nodes items came
   from (when known); [All] means "every instance under these summary
   nodes", which lets whole paths evaluate without touching instances. *)
type seqv =
  | Mat of item list
  | All_nodes of Summary.node list
  | All_values of Summary.node list (* element snodes whose text containers hold the values *)

type binding = { seq : seqv; snodes : Summary.node list }

let mat items = { seq = Mat items; snodes = [] }

type ctx = {
  repo : Repository.t;
  prof : Xquec_obs.Explain.t option;  (** attached EXPLAIN profile, if any *)
  prof_ops : bool;
      (** open operator nodes in the profile; switched off inside
          per-tuple / per-node evaluation so the plan tree mirrors
          operators, not data (cmp counts still accumulate) *)
}

let mk_ctx repo = { repo; prof = None; prof_ops = true }

(* Per-item evaluation under an operator: keep the profile (so predicate
   evaluations are still attributed to the innermost open operator) but
   stop opening new operator nodes. *)
let quiet ctx = if ctx.prof_ops then { ctx with prof_ops = false } else ctx

type env = (string * binding) list

exception Eval_error of string

let err fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Repository helpers                                                  *)
(* ------------------------------------------------------------------ *)

let tag_code ctx name = Name_dict.code ctx.repo.Repository.dict name

let tag_name ctx code = Name_dict.name ctx.repo.Repository.dict code

let is_attr_code ctx code =
  code >= 0 && String.length (tag_name ctx code) > 0 && (tag_name ctx code).[0] = '@'

let container ctx id = ctx.repo.Repository.containers.(id)

(* Values attached directly to a node, in slot order: an element's
   pointers are its immediate text children; an attribute node's single
   pointer is its value. *)
let node_text_values ctx id : item list =
  Structure_tree.value_pointers ctx.repo.Repository.tree id
  |> Array.to_list
  |> List.map (fun (cid, idx) ->
         let cont = container ctx cid in
         Cval { cont; code = (Container.get cont idx).Container.code })

(* The value of an attribute node. *)
let attr_node_value ctx id : item option =
  match Array.to_list (Structure_tree.value_pointers ctx.repo.Repository.tree id) with
  | (cid, idx) :: _ ->
    let cont = container ctx cid in
    Some (Cval { cont; code = (Container.get cont idx).Container.code })
  | [] -> None

let decompress_cval (cont : Container.t) code = Compress.Codec.decompress cont.Container.model code

(* String value of an element: concatenation of all descendant text, in
   document order (attributes excluded), decompressing on the way. *)
let node_string_value ctx id : string =
  let tree = ctx.repo.Repository.tree in
  let id = if id < 0 then 0 else id (* the document node's string value *) in
  let buf = Buffer.create 64 in
  let rec go id =
    let values = Structure_tree.value_pointers tree id in
    Structure_tree.iter_child_entries tree id (fun entry ->
        if entry >= 0 then begin
          if not (is_attr_code ctx (Structure_tree.tag tree entry)) then go entry
        end
        else begin
          let slot = -entry - 1 in
          let (cid, idx) = values.(slot) in
          let cont = container ctx cid in
          Buffer.add_string buf (decompress_cval cont (Container.get cont idx).Container.code)
        end)
  in
  go id;
  Buffer.contents buf

(** Reconstruct the XML subtree rooted at [id] — the XMLSerialize +
    Decompress tail of a plan (§4, Fig. 5). *)
let rec reconstruct ctx id : Xmlkit.Tree.t =
  if id < 0 then Xmlkit.Tree.Element ("#document", [], [ reconstruct ctx 0 ])
  else begin
  let tree = ctx.repo.Repository.tree in
  let tag = tag_name ctx (Structure_tree.tag tree id) in
  let values = Structure_tree.value_pointers tree id in
  let attrs = ref [] in
  let kids = ref [] in
  Structure_tree.iter_child_entries tree id (fun entry ->
      if entry >= 0 then begin
        let ctag = tag_name ctx (Structure_tree.tag tree entry) in
        if String.length ctag > 0 && ctag.[0] = '@' then begin
          let v =
            match attr_node_value ctx entry with
            | Some (Cval { cont; code }) -> decompress_cval cont code
            | Some _ | None -> ""
          in
          attrs := (String.sub ctag 1 (String.length ctag - 1), v) :: !attrs
        end
        else kids := reconstruct ctx entry :: !kids
      end
      else begin
        let slot = -entry - 1 in
        let (cid, idx) = values.(slot) in
        let cont = container ctx cid in
        kids :=
          Xmlkit.Tree.Text (decompress_cval cont (Container.get cont idx).Container.code)
          :: !kids
      end);
  Xmlkit.Tree.Element (tag, List.rev !attrs, List.rev !kids)
  end

(* ------------------------------------------------------------------ *)
(* Materialization and atomization                                     *)
(* ------------------------------------------------------------------ *)

(* The document node is virtual: the summary root (tag -1) has no stored
   instances, so it materializes as the pseudo-id -1, which the
   navigation code below understands. *)
let doc_node_id = -1

let merged_node_items (snodes : Summary.node list) : item list =
  let (roots, others) = List.partition (fun (sn : Summary.node) -> sn.Summary.tag < 0) snodes in
  let root_items = if roots = [] then [] else [ Node doc_node_id ] in
  root_items
  @ (Summary.merged_ids others |> Array.to_list |> List.map (fun id -> Node id))

let materialize ctx (b : binding) : item list =
  match b.seq with
  | Mat items -> items
  | All_nodes snodes -> merged_node_items snodes
  | All_values snodes ->
    (* Document order across ALL contributing summary nodes: collect the
       owning node ids, merge-sort them globally, then read each owner's
       values in slot order. Values of attribute snodes (path ends in
       @name) are wrapped as attribute nodes. *)
    let owners =
      List.concat_map
        (fun (sn : Summary.node) ->
          let attr_name =
            if sn.Summary.tag >= 0 then begin
              let n = tag_name ctx sn.Summary.tag in
              if String.length n > 0 && n.[0] = '@' then
                Some (String.sub n 1 (String.length n - 1))
              else None
            end
            else None
          in
          Array.to_list sn.Summary.ids |> List.map (fun id -> (id, attr_name)))
        snodes
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.concat_map
      (fun (id, attr_name) ->
        let vals = node_text_values ctx id in
        match attr_name with
        | Some name -> List.map (fun v -> Att (name, v)) vals
        | None -> vals)
      owners

let count ctx (b : binding) : int =
  match b.seq with
  | Mat items -> List.length items
  | All_nodes snodes ->
    List.fold_left
      (fun acc (sn : Summary.node) ->
        acc + if sn.Summary.tag < 0 then 1 else Array.length sn.Summary.ids)
      0 snodes
  | All_values _ -> List.length (materialize ctx b)

(* ------------------------------------------------------------------ *)
(* Profiling shims (free when the ctx carries no Explain profile)      *)
(* ------------------------------------------------------------------ *)

(* Stamp the buffer-pool activity of [f]'s whole evaluation onto [node]
   (inclusive of child operators, same convention as wall time). *)
let with_cache_delta (node : Xquec_obs.Explain.node) (f : unit -> 'a) : 'a =
  let s0 = Storage.Buffer_pool.snapshot () in
  let v = f () in
  let s1 = Storage.Buffer_pool.snapshot () in
  Xquec_obs.Explain.set_cache node
    ~skipped_bytes:
      (s1.Storage.Buffer_pool.s_skipped_bytes - s0.Storage.Buffer_pool.s_skipped_bytes)
    ~hits:(s1.Storage.Buffer_pool.s_hits - s0.Storage.Buffer_pool.s_hits)
    ~misses:(s1.Storage.Buffer_pool.s_misses - s0.Storage.Buffer_pool.s_misses)
    ~waits:(s1.Storage.Buffer_pool.s_latch_waits - s0.Storage.Buffer_pool.s_latch_waits)
    ~skipped:(s1.Storage.Buffer_pool.s_blocks_skipped - s0.Storage.Buffer_pool.s_blocks_skipped)
    ~decoded_bytes:(s1.Storage.Buffer_pool.s_decoded_bytes - s0.Storage.Buffer_pool.s_decoded_bytes)
    ();
  v

(* Run [f] as an operator node; [rows] extracts the output cardinality
   from its result. *)
let prof_rows ctx ?attrs ~kind op ~(rows : 'a -> int) (f : unit -> 'a) : 'a =
  match ctx.prof with
  | Some p when ctx.prof_ops ->
    Xquec_obs.Explain.with_op p ?attrs ~kind op (fun node ->
        let v = with_cache_delta node f in
        Xquec_obs.Explain.set_rows node (rows v);
        v)
  | _ -> f ()

let prof_binding ctx ?attrs ~kind op (f : unit -> binding) : binding =
  match ctx.prof with
  | Some p when ctx.prof_ops ->
    Xquec_obs.Explain.with_op p ?attrs ~kind op (fun node ->
        let b = with_cache_delta node (fun () -> f ()) in
        Xquec_obs.Explain.set_rows node (count ctx b);
        b)
  | _ -> f ()

(* [n] predicate evaluations decided on compressed codes ([compressed])
   or after decompression; attributed to the innermost open operator and
   to the global executor.cmp.* counters. *)
let note_cmp ctx ~compressed n =
  if n > 0 then begin
    (match ctx.prof with
    | Some p -> Xquec_obs.Explain.note_cmp p ~compressed n
    | None -> ());
    if Xquec_obs.is_enabled () then
      Xquec_obs.Metrics.incr ~by:n
        (if compressed then "executor.cmp.compressed" else "executor.cmp.decompressed")
  end

(* ------------------------------------------------------------------ *)
(* Block-interval merge join: counters, toggle and plan shape          *)
(* ------------------------------------------------------------------ *)

(* Process-wide counters for the block merge join, kept as atomics (like
   the buffer-pool stats) so they survive with telemetry off and can be
   synced into /metrics, --stats and the query log. *)
type join_stats = {
  j_block_joins : int;
  j_blocks_probed : int;
  j_blocks_skipped : int;
  j_skipped_bytes : int;
}

let a_block_joins = Atomic.make 0
let a_blocks_probed = Atomic.make 0
let a_blocks_skipped = Atomic.make 0
let a_skipped_bytes = Atomic.make 0

let join_stats () : join_stats =
  {
    j_block_joins = Atomic.get a_block_joins;
    j_blocks_probed = Atomic.get a_blocks_probed;
    j_blocks_skipped = Atomic.get a_blocks_skipped;
    j_skipped_bytes = Atomic.get a_skipped_bytes;
  }

let reset_join_stats () =
  Atomic.set a_block_joins 0;
  Atomic.set a_blocks_probed 0;
  Atomic.set a_blocks_skipped 0;
  Atomic.set a_skipped_bytes 0

let block_join_enabled = ref true

let set_block_join on = block_join_enabled := on

let note_block_join ~probed ~skipped ~skipped_bytes =
  Atomic.incr a_block_joins;
  ignore (Atomic.fetch_and_add a_blocks_probed probed);
  ignore (Atomic.fetch_and_add a_blocks_skipped skipped);
  ignore (Atomic.fetch_and_add a_skipped_bytes skipped_bytes);
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.incr "executor.join.block_joins";
    if probed > 0 then Xquec_obs.Metrics.incr ~by:probed "executor.join.blocks_probed";
    if skipped > 0 then Xquec_obs.Metrics.incr ~by:skipped "executor.join.blocks_skipped"
  end

(* ------------------------------------------------------------------ *)
(* Predicate-mix observations                                          *)
(* ------------------------------------------------------------------ *)

(* One container-resolved predicate (pushed-down filter, existence
   test, or compressed-domain join side) as observed during
   evaluation — the raw material the engine tags query-log records
   with and [Obs.Profile] aggregates into a workload fingerprint.
   Accumulated in a plain ref, like the Explain profile: queries are
   evaluated one at a time and [run] / [run_profiled] reset it, so
   after a query the list describes exactly that query. Not
   thread-safe across concurrently evaluated queries. *)
type pred_obs = {
  o_container : string;  (* container (or summary) path *)
  o_kind : string;  (* "eq" | "range" | "wild" | "exists" | "join" *)
  o_candidates : int;  (* records / instances considered *)
  o_matches : int;  (* records / instances matched *)
}

(* Merged by (container, kind): per-tuple comparison notes (one per
   FLWOR tuple) would otherwise contribute thousands of entries, and
   the fingerprint only needs the sums. First-observation order is
   kept so the log record is stable.

   The accumulator lives in Domain.DLS so concurrent queries (one per
   serve worker domain) observe only their own predicates: [run] resets
   the evaluating domain's slot, predicate sites bump it, and the
   engine reads it back on the same domain immediately after
   evaluation. Predicate checks always execute on the evaluating domain
   — Domain_pool workers only decode blocks — so no observation is ever
   recorded against the wrong domain's slot. *)
type pred_obs_state = {
  po_tbl : (string * string, int ref * int ref) Hashtbl.t;
  mutable po_order : (string * string) list;
}

let pred_obs_key : pred_obs_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { po_tbl = Hashtbl.create 16; po_order = [] })

let reset_predicate_observations () =
  let st = Domain.DLS.get pred_obs_key in
  Hashtbl.reset st.po_tbl;
  st.po_order <- []

let predicate_observations () =
  let st = Domain.DLS.get pred_obs_key in
  List.rev_map
    (fun ((container, kind) as key) ->
      let c, m = Hashtbl.find st.po_tbl key in
      { o_container = container; o_kind = kind; o_candidates = !c; o_matches = !m })
    st.po_order

let note_pred ~container ~kind ~candidates ~matches =
  let st = Domain.DLS.get pred_obs_key in
  match Hashtbl.find_opt st.po_tbl (container, kind) with
  | Some (c, m) ->
    c := !c + candidates;
    m := !m + matches
  | None ->
    Hashtbl.add st.po_tbl (container, kind) (ref candidates, ref matches);
    st.po_order <- (container, kind) :: st.po_order

(* One (left container, right container) pairing of a block join with
   its header-overlap estimate; a side with several summary nodes
   contributes one pairing per container product. *)
type block_pairing = {
  bp_lc : Container.t;
  bp_lhops : int;
  bp_rc : Container.t;
  bp_rhops : int;
  bp_est : Cost_model.block_join_estimate;
}

(* A fully-decided block merge join: everything needed to execute it
   without re-checking applicability. [pl_tuple_nodes] pairs each outer
   tuple delta with the node id its probe-side variable is bound to;
   [pl_item_of_node] inverts the source items (all tree nodes) to their
   item index, so matched records map back to output positions. *)
type block_plan = {
  pl_items : item array;
  pl_item_of_node : (int, int) Hashtbl.t;
  pl_tuple_nodes : (env * int) list;
  pl_pairings : block_pairing list;
  pl_probed : int;
  pl_skipped : int;
  pl_skipped_bytes : int;
}

let short_expr ?(limit = 48) (e : Ast.expr) : string =
  let s = Ast.to_string e in
  if String.length s > limit then String.sub s 0 (limit - 3) ^ "..." else s

let step_label (st : Ast.step) : string =
  let axis =
    match st.Ast.axis with
    | Ast.Child -> "child"
    | Ast.Descendant -> "descendant"
    | Ast.Attribute -> "attribute"
  in
  let test =
    match st.Ast.test with Ast.Name n -> n | Ast.Any -> "*" | Ast.Text -> "text()"
  in
  axis ^ "::" ^ test

let rec atom_string ctx = function
  | Node id -> node_string_value ctx id
  | Cval { cont; code } -> decompress_cval cont code
  | Att (_, v) -> atom_string ctx v
  | Str s -> s
  | Num f -> if Float.is_integer f then string_of_int (int_of_float f) else Printf.sprintf "%g" f
  | Bool b -> if b then "true" else "false"
  | Elem t -> Xmlkit.Tree.text_content t

let atom_number ctx it =
  match it with
  | Num f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Node _ | Cval _ | Att _ | Str _ | Elem _ ->
    float_of_string_opt (String.trim (atom_string ctx it))

let ebv ctx (b : binding) =
  match b.seq with
  | All_nodes snodes ->
    List.exists
      (fun (sn : Summary.node) -> sn.Summary.tag < 0 || Array.length sn.Summary.ids > 0)
      snodes
  | All_values _ -> materialize ctx b <> []
  | Mat [] -> false
  | Mat [ Bool b ] -> b
  | Mat [ Str s ] -> s <> ""
  | Mat [ Num f ] -> f <> 0.0 && not (Float.is_nan f)
  | Mat _ -> true

let singleton_number ctx (b : binding) =
  match materialize ctx b with
  | [ it ] -> (
    match atom_number ctx it with
    | Some f -> f
    | None -> err "cannot convert %S to a number" (atom_string ctx it))
  | [] -> Float.nan
  | _ -> err "expected a singleton numeric value"

(* Comparison of two items: stays in the compressed domain when both are
   codes under the same source model and the codec supports the class. *)
let rec compare_items ctx a b : int =
  match a, b with
  | Att (_, x), y -> compare_items ctx x y
  | x, Att (_, y) -> compare_items ctx x y
  | Cval x, Cval y
    when x.cont.Container.model_id = y.cont.Container.model_id
         && Compress.Codec.supports x.cont.Container.algorithm `Ineq ->
    String.compare x.code y.code
  | _ -> (
    match atom_number ctx a, atom_number ctx b with
    | Some x, Some y -> compare x y
    | _ -> compare (atom_string ctx a) (atom_string ctx b))

let cmp_holds ctx op a b =
  let a = match a with Att (_, v) -> v | a -> a in
  let b = match b with Att (_, v) -> v | b -> b in
  match op, a, b with
  | Ast.Eq, Cval x, Cval y
    when x.cont.Container.model_id = y.cont.Container.model_id
         && Compress.Codec.supports x.cont.Container.algorithm `Eq ->
    note_cmp ctx ~compressed:true 1;
    String.equal x.code y.code
  | _ ->
    let compressed =
      match a, b with
      | Cval x, Cval y ->
        x.cont.Container.model_id = y.cont.Container.model_id
        && Compress.Codec.supports x.cont.Container.algorithm `Ineq
      | _ -> false
    in
    note_cmp ctx ~compressed 1;
    let c = compare_items ctx a b in
    (match op with
    | Ast.Eq -> c = 0
    | Ast.Neq -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0)

(* ------------------------------------------------------------------ *)
(* Summary-level step matching                                         *)
(* ------------------------------------------------------------------ *)

let summary_step ctx (st : Ast.step) : Summary.step option =
  match st.Ast.axis, st.Ast.test with
  | Ast.Child, Ast.Name n -> Option.map (fun c -> `Child c) (tag_code ctx n)
  | Ast.Child, Ast.Any -> Some `Child_any
  | Ast.Descendant, Ast.Name n -> Option.map (fun c -> `Desc c) (tag_code ctx n)
  | Ast.Descendant, Ast.Any -> Some `Desc_any
  | Ast.Attribute, Ast.Name n -> Option.map (fun c -> `Child c) (tag_code ctx ("@" ^ n))
  | Ast.Attribute, (Ast.Any | Ast.Text) | (Ast.Child | Ast.Descendant), Ast.Text -> None

(* Apply one summary step from a set of summary nodes. *)
let advance_snodes ctx (snodes : Summary.node list) (st : Ast.step) : Summary.node list =
  match summary_step ctx st with
  | None -> []
  | Some sstep -> Summary.step_from ~is_attr:(is_attr_code ctx) snodes sstep

(* ------------------------------------------------------------------ *)
(* Compressed-domain container filters                                 *)
(* ------------------------------------------------------------------ *)

type const_operand = Cstr of string | Cnum of float

let const_of_expr = function
  | Ast.Literal_string s -> Some (Cstr s)
  | Ast.Literal_number f -> Some (Cnum f)
  | _ -> None

(* Records of [cont] satisfying [value op const]. Uses the compressed
   domain when the codec supports the class; otherwise scans and
   decompresses (the §3 cost). Returns records (code, parent). *)
let rec filter_records ctx (cont : Container.t) (op : Ast.cmp_op) (const : const_operand) :
    Container.record list =
  let alg = cont.Container.algorithm in
  let scan_filter pred =
    note_cmp ctx ~compressed:false (Container.length cont);
    Array.to_list (Container.scan cont)
    |> List.filter (fun (r : Container.record) -> pred (decompress_cval cont r.Container.code))
  in
  (* a lookup decided in the compressed domain: every matched record is a
     comparison that never decompressed *)
  let in_domain records =
    note_cmp ctx ~compressed:true (List.length records);
    records
  in
  let generic () =
    (* decompressed comparison with XQuery general-comparison semantics *)
    let holds v =
      match const with
      | Cnum f -> (
        match float_of_string_opt (String.trim v) with
        | Some x -> (
          let c = compare x f in
          match op with
          | Ast.Eq -> c = 0
          | Ast.Neq -> c <> 0
          | Ast.Lt -> c < 0
          | Ast.Le -> c <= 0
          | Ast.Gt -> c > 0
          | Ast.Ge -> c >= 0)
        | None -> false)
      | Cstr s -> (
        let c =
          match float_of_string_opt (String.trim v), float_of_string_opt s with
          | Some x, Some y -> compare x y
          | _ -> String.compare v s
        in
        match op with
        | Ast.Eq -> c = 0
        | Ast.Neq -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0)
    in
    scan_filter holds
  in
  match cont.Container.model, const with
  | Compress.Codec.M_numeric m, Cnum f -> (
    (* numeric containers: compare in the packed (order-preserving) domain *)
    match op with
    | Ast.Eq -> (
      match Compress.Ipack.pack_exact m f with
      | Some code -> in_domain (Container.lookup_eq cont code)
      | None -> [])
    | Ast.Neq -> generic ()
    | Ast.Lt ->
      in_domain (Container.lookup_range cont ~hi:(Compress.Ipack.pack_bound m ~dir:`Ceil f) ())
    | Ast.Le ->
      let b = Compress.Ipack.pack_bound m ~dir:`Floor f in
      in_domain (Container.range cont ~lo:0 ~hi:(Container.upper_bound cont b))
    | Ast.Gt ->
      let b = Compress.Ipack.pack_bound m ~dir:`Floor f in
      in_domain
        (Container.range cont ~lo:(Container.upper_bound cont b) ~hi:(Container.length cont))
    | Ast.Ge ->
      in_domain (Container.lookup_range cont ~lo:(Compress.Ipack.pack_bound m ~dir:`Ceil f) ()))
  | Compress.Codec.M_numeric m, Cstr s -> (
    match float_of_string_opt s with
    | Some f -> filter_records ctx cont op (Cnum f)
    | None ->
      (* the general-comparison rules fall back to string comparison when
         one side is not numeric: decompress and compare as strings *)
      ignore m;
      generic ())
  | _, Cstr s when Compress.Codec.supports alg `Eq && op = Ast.Eq ->
    in_domain (Container.lookup_eq cont (Container.compress_constant cont s))
  | _, Cstr s
    when Compress.Codec.supports alg `Ineq
         && (op = Ast.Lt || op = Ast.Le || op = Ast.Gt || op = Ast.Ge) -> (
    let code = Container.compress_constant cont s in
    match op with
    | Ast.Lt -> in_domain (Container.lookup_range cont ~hi:code ())
    | Ast.Le ->
      in_domain (Container.range cont ~lo:0 ~hi:(Container.upper_bound cont code))
    | Ast.Gt ->
      in_domain
        (Container.range cont ~lo:(Container.upper_bound cont code) ~hi:(Container.length cont))
    | Ast.Ge -> in_domain (Container.lookup_range cont ~lo:code ())
    | Ast.Eq | Ast.Neq -> assert false)
  | _ -> generic ()

(* contains / starts-with over a container. starts-with runs in the
   compressed domain for Huffman (bit-prefix match) and for
   order-preserving codecs (prefix range); contains always decompresses. *)
let filter_records_textual ctx (cont : Container.t) ~(kind : [ `Contains | `Starts_with ])
    (needle : string) : Container.record list =
  match kind with
  | `Starts_with -> (
    match cont.Container.model with
    | Compress.Codec.M_huffman h ->
      (* bit-prefix match on codes: every record is tested, none decompress *)
      note_cmp ctx ~compressed:true (Container.length cont);
      let prefix_bits = Compress.Huffman.compress_prefix h needle in
      Array.to_list (Container.scan cont)
      |> List.filter (fun (r : Container.record) ->
             Compress.Huffman.matches_prefix ~prefix_bits r.Container.code)
    | Compress.Codec.M_alm m ->
      let (lo, hi) = Compress.Alm.prefix_range m needle in
      let records = Container.lookup_range cont ~lo ?hi () in
      note_cmp ctx ~compressed:true (List.length records);
      records
    | _ ->
      note_cmp ctx ~compressed:false (Container.length cont);
      Array.to_list (Container.scan cont)
      |> List.filter (fun (r : Container.record) ->
             let v = decompress_cval cont r.Container.code in
             String.length needle <= String.length v
             && String.sub v 0 (String.length needle) = needle))
  | `Contains ->
    note_cmp ctx ~compressed:false (Container.length cont);
    let contains hay =
      let n = String.length needle and h = String.length hay in
      if n = 0 then true
      else begin
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      end
    in
    Array.to_list (Container.scan cont)
    |> List.filter (fun (r : Container.record) ->
           contains (decompress_cval cont r.Container.code))

(* Map a matched record's parent pointer to the element [hops] levels up.
   Attribute records point at the attribute node, whose parent is the
   owning element. *)
let record_element ctx (cont : Container.t) (r : Container.record) : int =
  match cont.Container.kind with
  | Container.Text -> r.Container.parent
  | Container.Attribute -> Structure_tree.parent ctx.repo.Repository.tree r.Container.parent

let rec ancestor_at ctx id hops =
  if hops <= 0 then id else ancestor_at ctx (Structure_tree.parent ctx.repo.Repository.tree id) (hops - 1)

(* ------------------------------------------------------------------ *)
(* Predicate analysis and pushdown                                     *)
(* ------------------------------------------------------------------ *)

(* Recognized predicate shapes that can be pushed into containers. *)
type pushable =
  | P_value of Ast.cmp_op * Ast.step list * const_operand
  | P_textual of [ `Contains | `Starts_with ] * Ast.step list * string
  | P_exists of Ast.step list

let flip_op = function
  | Ast.Eq -> Ast.Eq
  | Ast.Neq -> Ast.Neq
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le

let recognize_pushable (e : Ast.expr) : pushable option =
  match e with
  | Ast.Cmp (op, Ast.Path (Ast.Context, vsteps), rhs) ->
    Option.map (fun c -> P_value (op, vsteps, c)) (const_of_expr rhs)
  | Ast.Cmp (op, lhs, Ast.Path (Ast.Context, vsteps)) ->
    Option.map (fun c -> P_value (flip_op op, vsteps, c)) (const_of_expr lhs)
  | Ast.Contains (Ast.Path (Ast.Context, vsteps), Ast.Literal_string s) ->
    Some (P_textual (`Contains, vsteps, s))
  | Ast.Starts_with (Ast.Path (Ast.Context, vsteps), Ast.Literal_string s) ->
    Some (P_textual (`Starts_with, vsteps, s))
  | Ast.Path (Ast.Context, esteps) -> Some (P_exists esteps)
  | _ -> None

(* Resolve a context-relative value path to (container, hops-to-context).
   Supports chains of child element steps ending in text(), @attr, or a
   bare element. A bare-element comparison atomizes the element's whole
   subtree, so it only resolves to the immediate-text container when that
   is provably the complete string value: exactly one text child per
   instance and no text anywhere below. *)
(* Precomputed per container at build/load time — the old per-query
   implementation did a full [Container.scan], decoding every block and
   defeating the header pruning it was meant to enable. *)
let parents_all_distinct (cont : Container.t) : bool = cont.Container.distinct_parents

let resolve_value_path ?(concat_semantics = false) ctx (snodes : Summary.node list)
    (vsteps : Ast.step list) : (Container.t * int) list option =
  let rec go snodes hops = function
    | [] ->
      (* bare element comparison *)
      let sound (sn : Summary.node) =
        (match sn.Summary.text_container with
        | Some cid ->
          let cont = container ctx cid in
          Array.length sn.Summary.ids = Container.length cont
          && parents_all_distinct cont
        | None -> false)
        && List.for_all
             (fun (d : Summary.node) -> d == sn || d.Summary.text_container = None)
             (Summary.descend_all sn [])
      in
      let conts =
        if snodes <> [] && List.for_all sound snodes then
          List.filter_map
            (fun (sn : Summary.node) -> Option.map (container ctx) sn.Summary.text_container)
            snodes
        else []
      in
      if conts = [] then None else Some (List.map (fun c -> (c, hops)) conts)
    | ({ Ast.axis = Ast.Child; test = Ast.Text; predicates = [] } : Ast.step) :: [] ->
      (* text() value comparisons are existential over the text nodes, so
         per-record matching is exact; contains/starts-with concatenate
         the sequence, so they additionally need one text node per
         instance *)
      let one_text_per_instance (sn : Summary.node) =
        match sn.Summary.text_container with
        | Some cid ->
          let cont = container ctx cid in
          Array.length sn.Summary.ids = Container.length cont
          && parents_all_distinct cont
        | None -> false
      in
      let usable =
        snodes <> []
        && ((not concat_semantics) || List.for_all one_text_per_instance snodes)
      in
      let conts =
        if usable then
          List.filter_map
            (fun (sn : Summary.node) -> Option.map (container ctx) sn.Summary.text_container)
            snodes
        else []
      in
      if conts = [] then None else Some (List.map (fun c -> (c, hops)) conts)
    | { Ast.axis = Ast.Attribute; test = Ast.Name _; predicates = [] } :: [] as steps ->
      let asnodes = advance_snodes ctx snodes (List.hd steps) in
      let conts =
        List.filter_map
          (fun (sn : Summary.node) -> Option.map (container ctx) sn.Summary.text_container)
          asnodes
      in
      (* attribute records resolve to the owning element at this level *)
      if conts = [] then None else Some (List.map (fun c -> (c, hops)) conts)
    | ({ Ast.axis = Ast.Child; test = Ast.Name _; predicates = [] } as st) :: rest ->
      let next = advance_snodes ctx snodes st in
      if next = [] then None else go next (hops + 1) rest
    | _ -> None
  in
  if snodes = [] then None else go snodes 0 vsteps

(* Static applicability of the block merge join for an Eq join binding
   [var] (header/summary analysis only — shared between the executor's
   plan builder and the optimizer's EXPLAIN): both key expressions must
   be value paths rooted at a single variable (the right side at [var],
   the left side at an earlier one), resolving to containers that share
   one source model with [`Eq] support and whose record sequences are
   verified [sorted_run]s. Returns the two sides'
   (container, hops-to-variable) resolutions. *)
let block_join_sides ctx (env : env) ~(var : string) (left_e : Ast.expr)
    (right_e : Ast.expr) : ((Container.t * int) list * (Container.t * int) list) option =
  let side_of e =
    let (root, steps) =
      match e with
      | Ast.Path (Ast.Var v, steps) -> (Some v, steps)
      | Ast.Var v -> (Some v, [])
      | _ -> (None, [])
    in
    match root with
    | None -> None
    | Some v -> (
      match List.assoc_opt v env with
      | None -> None
      | Some b -> Option.map (fun res -> (v, res)) (resolve_value_path ctx b.snodes steps))
  in
  match side_of left_e, side_of right_e with
  | Some (lv, lres), Some (rv, rres) when rv = var && lv <> var -> (
    match List.map fst (lres @ rres) with
    | [] -> None
    | (c0 : Container.t) :: _ as conts ->
      if
        Compress.Codec.supports c0.Container.algorithm `Eq
        && List.for_all
             (fun (c : Container.t) ->
               c.Container.model_id = c0.Container.model_id && c.Container.sorted_run)
             conts
      then Some (lres, rres)
      else None)
  | _ -> None

(* The block-vs-hash choice for an Eq join binding [var], from headers
   and the summary alone (shared with the optimizer's EXPLAIN): the
   pairings of the two sides' containers with their header-overlap
   estimates, when the block merge join is enabled, statically
   applicable ({!block_join_sides}) and favored by
   {!Cost_model.prefer_block_join} for [tuples] outer tuples ([max_int],
   i.e. unknown, for EXPLAIN). *)
let block_join_pairings ?(tuples = max_int) ctx (env : env) ~(var : string)
    (left_e : Ast.expr) (right_e : Ast.expr) : block_pairing list option =
  if not !block_join_enabled then None
  else
    match block_join_sides ctx env ~var left_e right_e with
    | None -> None
    | Some (lres, rres) ->
      let pairings =
        List.concat_map
          (fun (lc, lhops) ->
            List.map
              (fun (rc, rhops) ->
                {
                  bp_lc = lc;
                  bp_lhops = lhops;
                  bp_rc = rc;
                  bp_rhops = rhops;
                  bp_est =
                    Cost_model.block_join_estimate (Container.headers lc) (Container.headers rc);
                })
              rres)
          lres
      in
      if Cost_model.prefer_block_join (List.map (fun p -> p.bp_est) pairings) ~tuples then
        Some pairings
      else None

(* Matched element ids (at candidate level) for a pushable predicate,
   or None when it cannot be resolved statically. *)
let pushdown_matches ctx (snodes : Summary.node list) (p : pushable) : int array option =
  let of_records ~kind resolved records_of =
    let ids =
      List.concat_map
        (fun ((cont : Container.t), hops) ->
          let records = records_of cont in
          note_pred ~container:cont.Container.path ~kind ~candidates:(Container.length cont)
            ~matches:(List.length records);
          List.map
            (fun r -> ancestor_at ctx (record_element ctx cont r) hops)
            records)
        resolved
    in
    let arr = Array.of_list ids in
    Array.sort compare arr;
    Some arr
  in
  match p with
  | P_value (op, vsteps, const) -> (
    if op = Ast.Neq then None
    else
      match resolve_value_path ctx snodes vsteps with
      | None -> None
      | Some resolved ->
        of_records
          ~kind:(if op = Ast.Eq then "eq" else "range")
          resolved
          (fun cont -> filter_records ctx cont op const))
  | P_textual (kind, vsteps, needle) -> (
    match resolve_value_path ~concat_semantics:true ctx snodes vsteps with
    | None -> None
    | Some resolved ->
      of_records ~kind:"wild" resolved (fun cont -> filter_records_textual ctx cont ~kind needle))
  | P_exists esteps -> (
    (* existence of a child path: ids of the target snodes mapped up *)
    let rec advance snodes hops = function
      | [] -> Some (snodes, hops)
      | ({ Ast.axis = Ast.Child; test = Ast.Name _; predicates = [] } as st) :: rest ->
        let next = advance_snodes ctx snodes st in
        if next = [] then None else advance next (hops + 1) rest
      | ({ Ast.axis = Ast.Attribute; test = Ast.Name _; predicates = [] } as st) :: [] ->
        let next = advance_snodes ctx snodes st in
        if next = [] then None else Some (next, hops + 1)
      | _ -> None
    in
    match advance snodes 0 esteps with
    | None | Some (_, 0) -> None
    | Some (targets, hops) ->
      List.iter
        (fun (sn : Summary.node) ->
          let n = Array.length sn.Summary.ids in
          note_pred ~container:sn.Summary.path ~kind:"exists" ~candidates:n ~matches:n)
        targets;
      let ids =
        List.concat_map
          (fun (sn : Summary.node) ->
            Array.to_list sn.Summary.ids |> List.map (fun id -> ancestor_at ctx id hops))
          targets
      in
      let arr = Array.of_list (List.sort_uniq compare ids) in
      Some arr)

let mem_sorted (arr : int array) (x : int) : bool =
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) = x then found := true
    else if arr.(mid) < x then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

module Sset = Analysis.Sset

(* Join keys: [Kcode] probes compressed codes directly (both sides under
   one source model — the paper's compressed-domain joins); atoms fall
   back to numeric-then-string comparison semantics. *)
type join_key = Kcode of string | Knum of float | Kstr of string

type key_mode =
  | Mode_code of int * Container.t  (* shared model id + a container for re-compression *)
  | Mode_atom

(* --- Static planning decisions ---

   This section decides from the query, the summary and container
   metadata alone — no record is read — so the optimizer's EXPLAIN calls
   the very same functions the executor plans with. *)

(* Summary-node provenance of an expression: the static counterpart of
   a binding's [snodes]. *)
let rec static_snodes ctx (env : env) (e : Ast.expr) : Summary.node list =
  match e with
  | Ast.Doc _ -> [ ctx.repo.Repository.summary.Summary.root ]
  | Ast.Var v -> (match List.assoc_opt v env with Some b -> b.snodes | None -> [])
  | Ast.Context -> (match List.assoc_opt "." env with Some b -> b.snodes | None -> [])
  | Ast.Path (src, steps) ->
    List.fold_left
      (fun sn (st : Ast.step) ->
        match st.Ast.test with Ast.Text -> sn | _ -> advance_snodes ctx sn st)
      (static_snodes ctx env src) steps
  | Ast.Distinct_values e -> static_snodes ctx env e
  | _ -> []

(* Bind [v] to [e]'s static provenance (and an empty sequence). *)
let bind_static ctx (env : env) v (e : Ast.expr) : env =
  (v, { seq = Mat []; snodes = static_snodes ctx env e }) :: env

(* The containers a value path reads, when it resolves statically. *)
let static_value_containers ctx env (e : Ast.expr) : Container.t list option =
  match e with
  | Ast.Path ((Ast.Doc _ | Ast.Var _ | Ast.Context) as src, steps) -> (
    match static_snodes ctx env src with
    | [] -> None
    | snodes -> Option.map (List.map fst) (resolve_value_path ctx snodes steps))
  | _ -> None

let join_key_mode ctx env left_e right_e : key_mode =
  let conts_of e = static_value_containers ctx env e in
  match conts_of left_e, conts_of right_e with
  | Some (l :: ls), Some (r :: rs) ->
    let mid = l.Container.model_id in
    if
      r.Container.model_id = mid
      && List.for_all (fun (c : Container.t) -> c.Container.model_id = mid) (ls @ rs)
      && Compress.Codec.supports l.Container.algorithm `Eq
    then Mode_code (mid, l)
    else Mode_atom
  | _ -> Mode_atom

(* The join conjunct a FOR binding [var] consumes: the first of
   [conjuncts] comparing [var] with already-bound variables by anything
   but [!=], oriented bound side first. *)
let find_join ~bound ~base_vars ~var (conjuncts : Ast.expr list) :
    (Ast.expr * (Ast.cmp_op * Ast.expr * Ast.expr)) option =
  if Sset.is_empty bound then None
  else
    List.find_map
      (fun c ->
        match
          Analysis.join_conjunct ~left_vars:bound ~right_vars:(Sset.singleton var)
            ~outer:base_vars c
        with
        | Some ((op, _, _) as join) when op <> Ast.Neq -> Some (c, join)
        | _ -> None)
      conjuncts

(* A correlated LET-bound nested FLWOR rewritten as a join: the Q8/Q9
   pattern
     let $a := for $t in ... where <inner> = <outer> return ...
   builds the inner tuples once ([dc_clauses], the correlated conjunct
   removed) and probes them per outer tuple with [dc_outer]. *)
type decorrelation = {
  dc_op : Ast.cmp_op;
  dc_outer : Ast.expr;
  dc_inner : Ast.expr;
  dc_clauses : Ast.clause list;
  dc_return : Ast.expr;
  dc_mode : key_mode;
}

(* Applicability: [e] is a FLWOR whose clauses (bar its where-conjuncts)
   and return avoid the outer [tuple_vars], with exactly one conjunct
   mentioning them, and that one a non-[!=] join between outer and inner
   variables. [prov] carries the outer variables' provenance for typing
   the join keys. *)
let decorrelation ctx ~(prov : env) ~base_vars ~tuple_vars (e : Ast.expr) :
    decorrelation option =
  match e with
  | Ast.Flwor (clauses, ret) -> (
    let mentions = Analysis.mentions tuple_vars in
    let clean =
      List.for_all
        (function
          | Ast.For (_, e) | Ast.Let (_, e) -> not (mentions e)
          | Ast.Where _ -> true
          | Ast.Order_by keys -> not (List.exists (fun (k, _) -> mentions k) keys))
        clauses
      && not (mentions ret)
    in
    match List.partition mentions (Analysis.where_conjuncts clauses) with
    | [ c ], rest when clean -> (
      let structural = List.filter (function Ast.Where _ -> false | _ -> true) clauses in
      let inner_bound, typing_env =
        List.fold_left
          (fun (vs, env) -> function
            | Ast.For (v, e) | Ast.Let (v, e) -> (Sset.add v vs, bind_static ctx env v e)
            | Ast.Where _ | Ast.Order_by _ -> (vs, env))
          (Sset.empty, prov) structural
      in
      match
        Analysis.join_conjunct ~left_vars:tuple_vars ~right_vars:inner_bound ~outer:base_vars c
      with
      | Some (op, outer_e, inner_e) when op <> Ast.Neq ->
        Some
          {
            dc_op = op;
            dc_outer = outer_e;
            dc_inner = inner_e;
            dc_clauses =
              (match Analysis.conjoin rest with
              | None -> structural
              | Some w -> structural @ [ Ast.Where w ]);
            dc_return = ret;
            dc_mode = join_key_mode ctx typing_env outer_e inner_e;
          }
      | _ -> None)
    | _ -> None)
  | _ -> None

(* --- Join keys and the join probe --- *)

let join_key ctx (mode : key_mode) (it : item) : join_key list =
  let it = match it with Att (_, v) -> v | it -> it in
  match mode, it with
  | Mode_code (mid, _), Cval { cont; code } when cont.Container.model_id = mid ->
    [ Kcode code ]
  | Mode_code (_, shared), _ ->
    (* same model, different physical item: re-compress the atom *)
    [ Kcode (Container.compress_constant shared (atom_string ctx it)) ]
  | Mode_atom, it -> (
    match atom_number ctx it with
    | Some f -> [ Knum f ]
    | None -> [ Kstr (atom_string ctx it) ])

let join_keys ctx mode (b : binding) = List.concat_map (join_key ctx mode) (materialize ctx b)

let compare_join_key (a : join_key) (b : join_key) : int =
  match a, b with
  | Kcode x, Kcode y -> String.compare x y
  | Knum x, Knum y -> compare x y
  | Kstr x, Kstr y -> String.compare x y
  | Kcode _, _ -> -1
  | _, Kcode _ -> 1
  | Knum _, Kstr _ -> -1
  | Kstr _, Knum _ -> 1

(* Build once, probe many: index the inner side — (keys, payload) pairs
   in inner order, the payload an item (FOR joins) or a tuple
   (decorrelated LETs) — for [outer op inner]: a hash table on keys for
   [=], a key-sorted array searched by bisection for the inequalities.
   The probe returns the payloads matching any of the outer keys,
   deduplicated, in inner order. *)
let join_probe (op : Ast.cmp_op) (inner : (join_key list * 'a) list) : join_key list -> 'a list
    =
  let in_inner_order matched =
    List.sort_uniq (fun (i, _) (j, _) -> Int.compare i j) matched |> List.map snd
  in
  match op with
  | Ast.Eq ->
    let table : (join_key, (int * 'a) list ref) Hashtbl.t = Hashtbl.create 256 in
    List.iteri
      (fun i (ks, x) ->
        List.iter
          (fun k ->
            match Hashtbl.find_opt table k with
            | Some l -> l := (i, x) :: !l
            | None -> Hashtbl.add table k (ref [ (i, x) ]))
          (List.sort_uniq compare ks))
      inner;
    fun ks ->
      List.concat_map
        (fun k -> match Hashtbl.find_opt table k with Some l -> !l | None -> [])
        (List.sort_uniq compare ks)
      |> in_inner_order
  | Ast.Neq -> invalid_arg "join_probe: !="
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    let keyed =
      List.concat (List.mapi (fun i (ks, x) -> List.map (fun k -> (k, (i, x))) ks) inner)
      |> List.stable_sort (fun (a, _) (b, _) -> compare_join_key a b)
      |> Array.of_list
    in
    let n = Array.length keyed in
    (* first index whose key is >= k (~strict:false) or > k (~strict:true) *)
    let first ~strict k =
      let lo = ref 0 and hi = ref n in
      while !lo < !hi do
        let m = (!lo + !hi) / 2 in
        let c = compare_join_key (fst keyed.(m)) k in
        if c < 0 || (strict && c = 0) then lo := m + 1 else hi := m
      done;
      !lo
    in
    fun ks ->
      List.concat_map
        (fun k ->
          (* outer op inner: e.g. outer < inner wants inner keys > k *)
          let lo, hi =
            match op with
            | Ast.Lt -> (first ~strict:true k, n)
            | Ast.Le -> (first ~strict:false k, n)
            | Ast.Gt -> (0, first ~strict:false k)
            | _ -> (0, first ~strict:true k)
          in
          List.init (hi - lo) (fun i -> snd keyed.(lo + i)))
        ks
      |> in_inner_order

let lookup env v =
  match List.assoc_opt v env with
  | Some b -> b
  | None -> err "unbound variable $%s" v

let rec eval ctx (env : env) (e : Ast.expr) : binding =
  match e with
  | Ast.Literal_string s -> mat [ Str s ]
  | Ast.Literal_number f -> mat [ Num f ]
  | Ast.Var v -> lookup env v
  | Ast.Context -> lookup env "."
  | Ast.Doc _ ->
    let root = ctx.repo.Repository.summary.Summary.root in
    { seq = All_nodes [ root ]; snodes = [ root ] }
  | Ast.Path (src, steps) ->
    let b = eval ctx env src in
    List.fold_left (eval_step ctx env) b steps
  | Ast.Flwor (clauses, ret) -> eval_flwor ctx env clauses ret
  | Ast.If (c, t, f) -> if ebv ctx (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Cmp (op, a, b) ->
    let xs = materialize ctx (eval ctx env a) and ys = materialize ctx (eval ctx env b) in
    let holds = List.exists (fun x -> List.exists (fun y -> cmp_holds ctx op x y) ys) xs in
    note_cmp_obs ctx env op ~a ~b ~xs ~ys ~holds;
    mat [ Bool holds ]
  | Ast.Arith (op, a, b) ->
    let x = singleton_number ctx (eval ctx env a)
    and y = singleton_number ctx (eval ctx env b) in
    let v =
      match op with
      | Ast.Add -> x +. y
      | Ast.Sub -> x -. y
      | Ast.Mul -> x *. y
      | Ast.Div -> x /. y
      | Ast.Mod -> Float.rem x y
    in
    mat [ Num v ]
  | Ast.And (a, b) -> mat [ Bool (ebv ctx (eval ctx env a) && ebv ctx (eval ctx env b)) ]
  | Ast.Or (a, b) -> mat [ Bool (ebv ctx (eval ctx env a) || ebv ctx (eval ctx env b)) ]
  | Ast.Not a -> mat [ Bool (not (ebv ctx (eval ctx env a))) ]
  | Ast.Aggregate (agg, e) -> eval_aggregate ctx env agg e
  | Ast.Contains (a, b) ->
    let hay = String.concat "" (List.map (atom_string ctx) (materialize ctx (eval ctx env a))) in
    let needle =
      String.concat "" (List.map (atom_string ctx) (materialize ctx (eval ctx env b)))
    in
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      if n = 0 then true
      else begin
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      end
    in
    mat [ Bool (contains hay needle) ]
  | Ast.Starts_with (a, b) ->
    let hay = String.concat "" (List.map (atom_string ctx) (materialize ctx (eval ctx env a))) in
    let needle =
      String.concat "" (List.map (atom_string ctx) (materialize ctx (eval ctx env b)))
    in
    mat
      [
        Bool
          (String.length needle <= String.length hay
          && String.sub hay 0 (String.length needle) = needle);
      ]
  | Ast.Ftcontains (a, words) ->
    let hay =
      String.lowercase_ascii
        (String.concat " " (List.map (atom_string ctx) (materialize ctx (eval ctx env a))))
    in
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      if n = 0 then true
      else begin
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      end
    in
    mat [ Bool (List.for_all (fun w -> contains hay w) words) ]
  | Ast.Empty e -> mat [ Bool (count ctx (eval ctx env e) = 0) ]
  | Ast.Exists e -> mat [ Bool (count ctx (eval ctx env e) > 0) ]
  | Ast.Distinct_values e -> eval_distinct ctx env e
  | Ast.String_of e ->
    mat [ Str (String.concat "" (List.map (atom_string ctx) (materialize ctx (eval ctx env e)))) ]
  | Ast.Number_of e -> mat [ Num (singleton_number ctx (eval ctx env e)) ]
  | Ast.Name_of e -> (
    match materialize ctx (eval ctx env e) with
    | Node id :: _ ->
      let n = tag_name ctx (Structure_tree.tag ctx.repo.Repository.tree id) in
      let n = if String.length n > 0 && n.[0] = '@' then String.sub n 1 (String.length n - 1) else n in
      mat [ Str n ]
    | Elem (Xmlkit.Tree.Element (t, _, _)) :: _ -> mat [ Str t ]
    | Att (n, _) :: _ -> mat [ Str n ]
    | _ -> mat [ Str "" ])
  | Ast.Some_satisfies (v, e, cond) ->
    let items = materialize ctx (eval ctx env e) in
    let qctx = quiet ctx in
    mat
      [ Bool (List.exists (fun it -> ebv qctx (eval qctx ((v, mat [ it ]) :: env) cond)) items) ]
  | Ast.Every_satisfies (v, e, cond) ->
    let items = materialize ctx (eval ctx env e) in
    let qctx = quiet ctx in
    mat
      [ Bool (List.for_all (fun it -> ebv qctx (eval qctx ((v, mat [ it ]) :: env) cond)) items) ]
  | Ast.Element (tag, attrs, kids) -> mat [ Elem (construct ctx env tag attrs kids) ]
  | Ast.Sequence es -> mat (List.concat_map (fun e -> materialize ctx (eval ctx env e)) es)

(* --- Path steps --- *)

and eval_step ctx env (b : binding) (st : Ast.step) : binding =
  prof_binding ctx ~kind:"step" (step_label st) @@ fun () ->
  eval_step_inner ctx env b st

and eval_step_inner ctx env (b : binding) (st : Ast.step) : binding =
  let has_pos =
    List.exists
      (function Ast.Pos _ | Ast.Pos_last -> true | Ast.Cond _ -> false)
      st.Ast.predicates
  in
  match st.Ast.axis, st.Ast.test with
  | (Ast.Child | Ast.Descendant), Ast.Text -> (
    match b.seq with
    | All_nodes snodes when st.Ast.predicates = [] && st.Ast.axis = Ast.Child ->
      { seq = All_values snodes; snodes = [] }
    | _ ->
      let items =
        materialize ctx b
        |> List.concat_map (fun it ->
               match it with
               | Node id when id < 0 -> []
               | Node id ->
                 if st.Ast.axis = Ast.Child then node_text_values ctx id
                 else
                   node_text_values ctx id
                   @ List.concat_map (node_text_values ctx)
                       (Structure_tree.descendants ctx.repo.Repository.tree id
                       |> List.filter (fun d ->
                              not (is_attr_code ctx (Structure_tree.tag ctx.repo.Repository.tree d))))
               | Elem t ->
                 List.filter_map
                   (function Xmlkit.Tree.Text s -> Some (Str s) | Xmlkit.Tree.Element _ -> None)
                   (Xmlkit.Tree.children t)
               | Att _ | Cval _ | Str _ | Num _ | Bool _ -> [])
      in
      { seq = Mat items; snodes = [] })
  | Ast.Attribute, Ast.Name n -> (
    let asnodes = advance_snodes ctx b.snodes st in
    match b.seq with
    | All_nodes _ when st.Ast.predicates = [] && asnodes <> [] ->
      { seq = All_values asnodes; snodes = asnodes }
    | _ ->
      let items =
        materialize ctx b
        |> List.concat_map (fun it ->
               match it with
               | Node id when id < 0 -> []
               | Node id -> (
                 match tag_code ctx ("@" ^ n) with
                 | None -> []
                 | Some code ->
                   Structure_tree.children_with_tag ctx.repo.Repository.tree id code
                   |> List.filter_map (attr_node_value ctx)
                   |> List.map (fun v -> Att (n, v)))
               | Elem t -> (
                 match Xmlkit.Tree.attr t n with Some v -> [ Att (n, Str v) ] | None -> [])
               | Att _ | Cval _ | Str _ | Num _ | Bool _ -> [])
      in
      { seq = Mat items; snodes = asnodes })
  | Ast.Attribute, (Ast.Any | Ast.Text) -> err "unsupported attribute step"
  | (Ast.Child | Ast.Descendant), (Ast.Name _ | Ast.Any) -> (
    let new_snodes = advance_snodes ctx b.snodes st in
    match b.seq with
    | All_nodes _ when (not has_pos) && new_snodes <> [] ->
      if st.Ast.predicates = [] then { seq = All_nodes new_snodes; snodes = new_snodes }
      else begin
        let candidates = Summary.merged_ids new_snodes in
        let filtered = apply_cond_predicates ctx env new_snodes candidates st.Ast.predicates in
        { seq = Mat (List.map (fun id -> Node id) (Array.to_list filtered)); snodes = new_snodes }
      end
    | _ ->
      (* navigate per context node, applying predicates per context *)
      let tree = ctx.repo.Repository.tree in
      (* the virtual document node (-1) has node 0 as its only child and
         every node as descendant *)
      let children_where id keep =
        if id = doc_node_id then (if keep (Structure_tree.tag tree 0) then [ 0 ] else [])
        else Structure_tree.children_where tree id keep
      in
      let desc_range id =
        if id = doc_node_id then (0, Structure_tree.node_count tree - 1)
        else (id + 1, Structure_tree.last_descendant tree id)
      in
      let kids_of id =
        match st.Ast.axis, st.Ast.test with
        | Ast.Child, Ast.Name n -> (
          match tag_code ctx n with
          | None -> []
          | Some code -> children_where id (fun tg -> tg = code))
        | Ast.Child, Ast.Any -> children_where id (fun tg -> not (is_attr_code ctx tg))
        | Ast.Descendant, Ast.Name n -> (
          match tag_code ctx n with
          | None -> []
          | Some code ->
            let (first, stop) = desc_range id in
            if new_snodes <> [] then begin
              (* slice the summary's id lists to this subtree's pre range *)
              let all = Summary.merged_ids new_snodes in
              let lo =
                let l = ref 0 and h = ref (Array.length all) in
                while !l < !h do
                  let m = (!l + !h) / 2 in
                  if all.(m) < first then l := m + 1 else h := m
                done;
                !l
              in
              let rec take i acc =
                if i < Array.length all && all.(i) <= stop then take (i + 1) (all.(i) :: acc)
                else List.rev acc
              in
              take lo []
            end
            else if id = doc_node_id then
              (* whole-document tag lookup straight off the wavelet tree *)
              (match Structure_tree.node_count tree with
              | 0 -> []
              | _ ->
                let rest = Structure_tree.descendants_with_tag tree 0 code in
                if Structure_tree.tag tree 0 = code then 0 :: rest else rest)
            else
              (* no summary pruning available: wavelet rank/select over
                 the subtree's pre-order interval instead of scanning
                 every descendant *)
              Structure_tree.descendants_with_tag tree id code)
        | Ast.Descendant, Ast.Any ->
          let (first, stop) = desc_range id in
          List.init (stop - first + 1) (fun i -> first + i)
          |> List.filter (fun d -> not (is_attr_code ctx (Structure_tree.tag tree d)))
        | _, Ast.Text | Ast.Attribute, _ -> assert false
      in
      let per_context id =
        let kids = kids_of id in
        List.fold_left
          (fun kids p ->
            match p with
            | Ast.Pos i -> (
              match List.nth_opt kids (i - 1) with Some k -> [ k ] | None -> [])
            | Ast.Pos_last -> (
              match List.rev kids with k :: _ -> [ k ] | [] -> [])
            | Ast.Cond e ->
              let qctx = quiet ctx in
              List.filter
                (fun k -> ebv qctx (eval qctx (("." , mat [ Node k ]) :: env) e))
                kids)
          kids st.Ast.predicates
      in
      let ids =
        materialize ctx b
        |> List.concat_map (fun it ->
               match it with
               | Node id -> per_context id
               | Elem _ -> err "cannot navigate into constructed elements with this axis"
               | Att _ | Cval _ | Str _ | Num _ | Bool _ -> [])
      in
      let ids = if st.Ast.axis = Ast.Descendant then List.sort_uniq compare ids else ids in
      { seq = Mat (List.map (fun id -> Node id) ids); snodes = new_snodes })

(* Filter candidate ids (doc order) by Cond predicates, using container
   pushdown when the predicate shape allows, per-node evaluation
   otherwise. *)
and apply_cond_predicates ctx env snodes (candidates : int array) (preds : Ast.predicate list) :
    int array =
  List.fold_left
    (fun cands p ->
      match p with
      | Ast.Pos _ | Ast.Pos_last -> cands (* handled by the navigation path *)
      | Ast.Cond e -> (
        let per_node cands =
          prof_rows ctx ~kind:"where"
            ("filter [" ^ short_expr e ^ "]")
            ~rows:Array.length
            (fun () ->
              let qctx = quiet ctx in
              Array.to_list cands
              |> List.filter (fun id ->
                     ebv qctx (eval qctx (("." , mat [ Node id ]) :: env) e))
              |> Array.of_list)
        in
        match recognize_pushable e with
        | None -> per_node cands
        | Some pu ->
          prof_rows ctx ~kind:"pushdown"
            ("pushdown [" ^ short_expr e ^ "]")
            ~rows:Array.length
            (fun () ->
              match pushdown_matches ctx snodes pu with
              | Some matched ->
                Array.to_list cands |> List.filter (mem_sorted matched) |> Array.of_list
              | None -> per_node cands)))
    candidates preds

(* --- Aggregates, distinct --- *)

and eval_aggregate ctx env agg e : binding =
  let name =
    match agg with
    | Ast.Count -> "count"
    | Ast.Sum -> "sum"
    | Ast.Avg -> "avg"
    | Ast.Min -> "min"
    | Ast.Max -> "max"
  in
  prof_binding ctx ~kind:"aggregate" (name ^ "()") @@ fun () ->
  let b = eval ctx env e in
  match agg with
  | Ast.Count -> mat [ Num (float_of_int (count ctx b)) ]
  | Ast.Sum ->
    let items = materialize ctx b in
    mat
      [
        Num
          (List.fold_left
             (fun acc it -> acc +. Option.value ~default:0.0 (atom_number ctx it))
             0.0 items);
      ]
  | Ast.Avg -> (
    match materialize ctx b with
    | [] -> mat []
    | items ->
      mat
        [
          Num
            (List.fold_left
               (fun acc it -> acc +. Option.value ~default:0.0 (atom_number ctx it))
               0.0 items
            /. float_of_int (List.length items));
        ])
  | Ast.Min | Ast.Max -> (
    match materialize ctx b with
    | [] -> mat []
    | first :: rest ->
      let better a b =
        let c = compare_items ctx a b in
        match agg with Ast.Min -> c <= 0 | _ -> c >= 0
      in
      let winner = List.fold_left (fun best it -> if better best it then best else it) first rest in
      (* fn:min/max atomize: strip node-ness but keep compressed values
         compressed (they decompress only on output) *)
      let atomized =
        match winner with
        | Att (_, v) -> v
        | Node id -> Str (node_string_value ctx id)
        | it -> it
      in
      mat [ atomized ])

and eval_distinct ctx env e : binding =
  let items = materialize ctx (eval ctx env e) in
  (* Stay compressed when every item shares one eq-capable source model. *)
  let items = List.map (function Att (_, v) -> v | it -> it) items in
  let all_same_model =
    match items with
    | Cval { cont; _ } :: _ ->
      Compress.Codec.supports cont.Container.algorithm `Eq
      && List.for_all
           (function
             | Cval { cont = c; _ } -> c.Container.model_id = cont.Container.model_id
             | _ -> false)
           items
    | _ -> false
  in
  if all_same_model then begin
    let seen = Hashtbl.create 64 in
    mat
      (List.filter
         (fun it ->
           match it with
           | Cval { code; _ } ->
             if Hashtbl.mem seen code then false
             else begin
               Hashtbl.add seen code ();
               true
             end
           | _ -> false)
         items)
  end
  else begin
    let seen = Hashtbl.create 64 in
    mat
      (List.filter_map
         (fun it ->
           let k = atom_string ctx it in
           if Hashtbl.mem seen k then None
           else begin
             Hashtbl.add seen k ();
             Some (Str k)
           end)
         items)
  end

(* --- Element construction --- *)

and construct ctx env tag attrs kids : Xmlkit.Tree.t =
  let eval_attr (n, v) =
    match v with
    | Ast.Attr_string s -> (n, s)
    | Ast.Attr_expr e ->
      ( n,
        String.concat " " (List.map (atom_string ctx) (materialize ctx (eval ctx env e))) )
  in
  let static_attrs = List.map eval_attr attrs in
  let kid_items = List.concat_map (fun k -> materialize ctx (eval ctx env k)) kids in
  (* attribute items in content become attributes of the new element *)
  let dyn_attrs =
    List.filter_map
      (function Att (n, v) -> Some (n, atom_string ctx v) | _ -> None)
      kid_items
  in
  let rec content acc pending = function
    | [] -> List.rev (flush acc pending)
    | Att _ :: rest -> content acc pending rest
    | Node id :: rest -> content (reconstruct ctx id :: flush acc pending) [] rest
    | Elem t :: rest -> content (t :: flush acc pending) [] rest
    | it :: rest -> content acc (atom_string ctx it :: pending) rest
  and flush acc pending =
    match pending with
    | [] -> acc
    | atoms -> Xmlkit.Tree.Text (String.concat " " (List.rev atoms)) :: acc
  in
  Xmlkit.Tree.Element (tag, static_attrs @ dyn_attrs, content [] [] kid_items)

(* --- FLWOR: one clause pipeline with join detection and decorrelation --- *)

and eval_flwor ctx (base : env) (clauses : Ast.clause list) (ret : Ast.expr) : binding =
  prof_binding ctx ~kind:"flwor" "flwor" @@ fun () ->
  let tuples = flwor_tuples ctx base clauses in
  let qctx = quiet ctx in
  mat
    (prof_rows ctx ~kind:"return" "return" ~rows:List.length (fun () ->
         List.concat_map (fun d -> materialize qctx (eval qctx (d @ base) ret)) tuples))

(* The clause pipeline: the binding tuples (deltas over [base]) of
   [clauses] — FOR joins, early where-conjuncts, decorrelated LETs and
   order by — without evaluating a return expression. Decorrelated
   nested FLWORs build their inner tuples through it too. *)
and flwor_tuples ctx (base : env) (clauses : Ast.clause list) : env list =
  let qctx = quiet ctx in
  let base_vars = Sset.of_list (List.map fst base) in
  let pending = ref (Analysis.where_conjuncts clauses) in
  let bound = ref Sset.empty in
  let tuples : env list ref = ref [ [] ] in
  (* static provenance env: every clause variable bound so far, carrying
     its summary nodes (and an empty sequence) — what join typing needs
     to resolve paths rooted at {e earlier} FOR/LET variables, which the
     per-tuple deltas can't provide statically *)
  let prov : env ref = ref base in
  let full delta = delta @ base in
  let apply_ready () =
    let (ready, rest) =
      List.partition
        (fun c -> Sset.subset (Analysis.free_vars c) (Sset.union !bound base_vars))
        !pending
    in
    pending := rest;
    List.iter
      (fun c ->
        prof_rows ctx ~kind:"where"
          ("where [" ^ short_expr c ^ "]")
          ~rows:(fun () -> List.length !tuples)
          (fun () ->
            tuples := List.filter (fun d -> ebv qctx (eval qctx (full d) c)) !tuples))
      ready
  in
  let bind v e =
    prov := bind_static ctx !prov v e;
    bound := Sset.add v !bound;
    apply_ready ()
  in
  let process_clause (clause : Ast.clause) =
    match clause with
    | Ast.For (v, e) ->
      let correlated = Analysis.mentions !bound e in
      prof_rows ctx ~kind:"for"
        ("for $" ^ v ^ if correlated then " (correlated)" else "")
        ~rows:(fun () -> List.length !tuples)
        (fun () ->
          if not correlated then begin
            let source = eval ctx base e in
            match find_join ~bound:!bound ~base_vars ~var:v !pending with
            | Some (c, ((jop, left_e, right_e) as join)) -> (
              pending := List.filter (fun c' -> c' != c) !pending;
              let bplan =
                if jop = Ast.Eq then
                  block_join_plan ctx ~base ~prov:!prov ~var:v ~source
                    ~tuples:!tuples left_e right_e
                else None
              in
              match bplan with
              | Some plan ->
                tuples :=
                  prof_rows ctx ~kind:"block_merge_join"
                    ("block merge join $" ^ v)
                    ~attrs:
                      [
                        ("blocks_probed", string_of_int plan.pl_probed);
                        ("blocks_skipped", string_of_int plan.pl_skipped);
                      ]
                    ~rows:List.length
                    (fun () -> exec_block_join qctx ~var:v plan)
              | None ->
                let jkind, jname =
                  if jop = Ast.Eq then ("hash_join", "hash join $" ^ v)
                  else ("sorted_probe", "sorted probe $" ^ v)
                in
                tuples :=
                  prof_rows ctx ~kind:jkind jname ~rows:List.length (fun () ->
                      exec_join qctx base !tuples ~prov:!prov ~var:v ~source join))
            | None ->
              let items = materialize ctx source in
              tuples :=
                List.concat_map
                  (fun d -> List.map (fun it -> (v, mat [ it ]) :: d) items)
                  !tuples
          end
          else
            tuples :=
              List.concat_map
                (fun d ->
                  let items = materialize qctx (eval qctx (full d) e) in
                  List.map (fun it -> (v, mat [ it ]) :: d) items)
                !tuples);
      bind v e
    | Ast.Let (v, e) ->
      let correlated = Analysis.mentions !bound e in
      prof_rows ctx ~kind:"let"
        ("let $" ^ v ^ if correlated then " (correlated)" else "")
        ~rows:(fun () -> List.length !tuples)
        (fun () ->
          if not correlated then begin
            let b = eval ctx base e in
            tuples := List.map (fun d -> (v, b) :: d) !tuples
          end
          else begin
            match
              decorrelation ctx ~prov:!prov ~base_vars ~tuple_vars:!bound e
            with
            | Some dc ->
              let probe = decorrelate qctx base dc in
              prof_rows ctx ~kind:"decorrelate" ("decorrelate $" ^ v)
                ~rows:(fun () -> List.length !tuples)
                (fun () -> tuples := List.map (fun d -> (v, mat (probe d)) :: d) !tuples)
            | None ->
              tuples := List.map (fun d -> (v, eval qctx (full d) e) :: d) !tuples
          end);
      bind v e
    | Ast.Where _ -> apply_ready ()
    | Ast.Order_by keys ->
      prof_rows ctx ~kind:"order_by" "order by"
        ~rows:(fun () -> List.length !tuples)
        (fun () ->
          let decorated =
            List.map
              (fun d ->
                (List.map (fun (k, dir) -> (materialize qctx (eval qctx (full d) k), dir)) keys, d))
              !tuples
          in
          let cmp (ka, _) (kb, _) =
            let rec go = function
              | [] -> 0
              | ((a, dir), (b, _)) :: rest ->
                let c =
                  match a, b with
                  | [], [] -> 0
                  | [], _ -> -1
                  | _, [] -> 1
                  | x :: _, y :: _ -> compare_items qctx x y
                in
                let c = match dir with `Asc -> c | `Desc -> -c in
                if c <> 0 then c else go rest
            in
            go (List.combine ka kb)
          in
          tuples := List.map snd (List.stable_sort cmp decorated))
  in
  List.iter process_clause clauses;
  apply_ready ();
  if !pending <> [] then
    err "where clause references unbound variables: %s"
      (String.concat ", "
         (List.concat_map (fun c -> Sset.elements (Analysis.free_vars c)) !pending));
  !tuples

and exec_join ctx base tuples ~prov ~var ~source (op, left_e, right_e) =
  let items = materialize ctx source in
  (* Key mode: compressed codes when both sides statically resolve to
     containers sharing one source model; atoms otherwise. The new
     variable's summary provenance comes from its source binding, the
     earlier clause variables' from the FLWOR's provenance env. *)
  let typing_env = (var, { seq = Mat []; snodes = source.snodes }) :: prov in
  let mode = join_key_mode ctx typing_env left_e right_e in
  let keys_of env e = join_keys ctx mode (eval ctx env e) in
  let probe =
    join_probe op (List.map (fun it -> (keys_of ((var, mat [ it ]) :: base) right_e, it)) items)
  in
  let out =
    List.concat_map
      (fun d -> List.map (fun it -> (var, mat [ it ]) :: d) (probe (keys_of (d @ base) left_e)))
      tuples
  in
  (* compressed-domain joins are container-resolved: observe the join
     side for the workload fingerprint (atom joins have no container) *)
  (match mode with
  | Mode_code (_, (c : Container.t)) ->
    note_pred ~container:c.Container.path ~kind:"join" ~candidates:(List.length items)
      ~matches:(List.length out)
  | Mode_atom -> ());
  out

(* --- Block-interval merge join (compressed-domain fast path) --- *)

(* Decide whether the Eq join binding [var] can run as a block merge
   join, and if so build the full plan. Applicability is checked from
   block headers and the summary only — no payload is decoded here:
   - {!block_join_pairings} holds: both key expressions are value paths
     rooted at a single variable (the right side at [var] itself, the
     left side at an already-bound variable with known provenance)
     resolving to [`Eq]-capable containers of one source model that are
     verified [sorted_run]s, and the header-overlap estimate for this
     many tuples favors the block join over the hash join;
   - every source item is a distinct tree node and every tuple binds
     the left variable to a single node, so matched records map back
     through parent pointers to output positions. *)
and block_join_plan ctx ~base ~prov ~var ~source ~tuples left_e right_e :
    block_plan option =
  if tuples = [] then None
  else begin
    let typing_env = (var, { seq = Mat []; snodes = source.snodes }) :: prov in
    (* the left side's root variable, needed to map tuples to probe nodes *)
    let left_var =
      match left_e with
      | Ast.Path (Ast.Var v, _) | Ast.Var v -> Some v
      | _ -> None
    in
    match
      block_join_pairings ~tuples:(List.length tuples) ctx typing_env ~var left_e right_e,
      left_var
    with
    | Some pairings, Some lv ->
        begin
          let items = materialize ctx source in
          let item_of_node = Hashtbl.create 256 in
          let nodes_ok = ref true in
          List.iteri
            (fun i it ->
              match it with
              | Node id when not (Hashtbl.mem item_of_node id) ->
                Hashtbl.add item_of_node id i
              | _ -> nodes_ok := false)
            items;
          if not !nodes_ok then None
          else begin
            let tuple_nodes =
              List.map
                (fun d ->
                  match List.assoc_opt lv (d @ base) with
                  | Some { seq = Mat [ Node id ]; _ } -> Some (d, id)
                  | _ -> None)
                tuples
            in
            if List.exists Option.is_none tuple_nodes then None
            else begin
              let sum f = List.fold_left (fun a p -> a + f p.bp_est) 0 pairings in
              Some
                {
                  pl_items = Array.of_list items;
                  pl_item_of_node = item_of_node;
                  pl_tuple_nodes = List.filter_map Fun.id tuple_nodes;
                  pl_pairings = pairings;
                  pl_probed = sum (fun e -> e.Cost_model.bj_probed_blocks);
                  pl_skipped = sum (fun e -> e.Cost_model.bj_skipped_blocks);
                  pl_skipped_bytes =
                    sum (fun e ->
                        e.Cost_model.bj_left_skipped_bytes
                        + e.Cost_model.bj_right_skipped_bytes);
                }
            end
          end
        end
    | _ -> None
  end

(* Execute a decided block merge join: account the skipped blocks,
   batch-decode the probed ones (contiguous runs through the domain
   pool), merge equal codes within each overlapping block pair, map
   matched records to (left node, right item) pairs through parent
   pointers, and emit per tuple in source-item order — exactly the
   output the hash join produces, without decompressing any value. *)
and exec_block_join ctx ~var (plan : block_plan) : env list =
  Xquec_obs.Trace.with_span ~name:"executor.block_merge_join"
    ~attrs:
      [
        ("var", var);
        ("blocks_probed", string_of_int plan.pl_probed);
        ("blocks_skipped", string_of_int plan.pl_skipped);
      ]
  @@ fun () ->
  note_block_join ~probed:plan.pl_probed ~skipped:plan.pl_skipped
    ~skipped_bytes:plan.pl_skipped_bytes;
  if plan.pl_skipped > 0 then
    Buffer_pool.note_skipped ~bytes:plan.pl_skipped_bytes plan.pl_skipped;
  (* per-container heat attribution of the header-pruned blocks (the
     global pool counter above has no container identity) *)
  List.iter
    (fun (p : block_pairing) ->
      let est = p.bp_est in
      let unprobed probe = Array.fold_left (fun acc b -> if b then acc else acc + 1) 0 probe in
      Xquec_obs.Heat.note_skip ~uid:p.bp_lc.Container.uid
        ~blocks:(unprobed est.Cost_model.bj_probe_left)
        ~bytes:est.Cost_model.bj_left_skipped_bytes;
      Xquec_obs.Heat.note_skip ~uid:p.bp_rc.Container.uid
        ~blocks:(unprobed est.Cost_model.bj_probe_right)
        ~bytes:est.Cost_model.bj_right_skipped_bytes)
    plan.pl_pairings;
  (* matched left node -> set of right item indices *)
  let matches : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 256 in
  let add_match lnode idx =
    let set =
      match Hashtbl.find_opt matches lnode with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.add matches lnode s;
        s
    in
    Hashtbl.replace set idx ()
  in
  (* decode the probed blocks of one side, batching each contiguous run
     through the domain pool *)
  let fetch_probed cont (probe : bool array) : Buffer_pool.decoded option array =
    let n = Array.length probe in
    let images = Array.make n None in
    let i = ref 0 in
    while !i < n do
      if probe.(!i) then begin
        let j = ref !i in
        while !j + 1 < n && probe.(!j + 1) do incr j done;
        let ds = Container.fetch_blocks cont ~b0:!i ~b1:!j in
        Array.iteri (fun k d -> images.(!i + k) <- Some d) ds;
        i := !j + 1
      end
      else incr i
    done;
    images
  in
  List.iter
    (fun (p : block_pairing) ->
      let est = p.bp_est in
      let limg = fetch_probed p.bp_lc est.Cost_model.bj_probe_left in
      let rimg = fetch_probed p.bp_rc est.Cost_model.bj_probe_right in
      List.iter
        (fun (bi, bj) ->
          match limg.(bi), rimg.(bj) with
          | Some dl, Some dr ->
            let lcodes = dl.Buffer_pool.codes and rcodes = dr.Buffer_pool.codes in
            let nl = Array.length lcodes and nr = Array.length rcodes in
            let cmps = ref 0 in
            let i = ref 0 and j = ref 0 in
            while !i < nl && !j < nr do
              incr cmps;
              let c = String.compare lcodes.(!i) rcodes.(!j) in
              if c < 0 then incr i
              else if c > 0 then incr j
              else begin
                let code = lcodes.(!i) in
                let ie = ref (!i + 1) in
                while !ie < nl && String.equal lcodes.(!ie) code do incr ie done;
                let je = ref (!j + 1) in
                while !je < nr && String.equal rcodes.(!je) code do incr je done;
                (* right item indices of the equal run, then the cross
                   product against the run's left records *)
                let ridx = ref [] in
                for y = !je - 1 downto !j do
                  let rnode =
                    ancestor_at ctx
                      (record_element ctx p.bp_rc
                         { Container.code; parent = dr.Buffer_pool.parents.(y) })
                      p.bp_rhops
                  in
                  match Hashtbl.find_opt plan.pl_item_of_node rnode with
                  | Some idx -> ridx := idx :: !ridx
                  | None -> ()
                done;
                if !ridx <> [] then
                  for x = !i to !ie - 1 do
                    let lnode =
                      ancestor_at ctx
                        (record_element ctx p.bp_lc
                           { Container.code; parent = dl.Buffer_pool.parents.(x) })
                        p.bp_lhops
                    in
                    List.iter (fun idx -> add_match lnode idx) !ridx
                  done;
                i := !ie;
                j := !je
              end
            done;
            note_cmp ctx ~compressed:true !cmps
          | _ -> assert false)
        est.Cost_model.bj_pairs)
    plan.pl_pairings;
  let out =
    List.concat_map
      (fun (d, lnode) ->
        match Hashtbl.find_opt matches lnode with
        | None -> []
        | Some s ->
          Hashtbl.fold (fun idx () acc -> idx :: acc) s []
          |> List.sort compare
          |> List.map (fun idx -> (var, mat [ plan.pl_items.(idx) ]) :: d))
      plan.pl_tuple_nodes
  in
  let rows = List.length out in
  List.iter
    (fun (p : block_pairing) ->
      note_pred ~container:p.bp_lc.Container.path ~kind:"join"
        ~candidates:(Container.length p.bp_lc) ~matches:rows;
      note_pred ~container:p.bp_rc.Container.path ~kind:"join"
        ~candidates:(Container.length p.bp_rc) ~matches:rows)
    plan.pl_pairings;
  out

(* Execute a decorrelation: build the inner tuples once through the
   clause pipeline, then answer each outer tuple by probing them. *)
and decorrelate ctx base (dc : decorrelation) : env -> item list =
  let keys_of env e = join_keys ctx dc.dc_mode (eval ctx env e) in
  let probe =
    join_probe dc.dc_op
      (List.map (fun d -> (keys_of (d @ base) dc.dc_inner, d)) (flwor_tuples ctx base dc.dc_clauses))
  in
  fun outer_delta ->
    probe (keys_of (outer_delta @ base) dc.dc_outer)
    |> List.concat_map (fun d -> materialize ctx (eval ctx (d @ outer_delta @ base) dc.dc_return))

(* Predicate-mix observation for a general comparison: the FLWOR
   [where] path evaluates comparisons tuple-at-a-time and never reaches
   the pushdown filters, so attribute the comparison to the container
   its value side reads — statically when a side is a resolvable value
   path, else from a compressed operand in the materialized sequences —
   with one candidate per evaluation and whether it held. *)
and note_cmp_obs ctx env (op : Ast.cmp_op) ~(a : Ast.expr) ~(b : Ast.expr) ~(xs : item list)
    ~(ys : item list) ~(holds : bool) : unit =
  let kind = match op with Ast.Eq | Ast.Neq -> "eq" | _ -> "range" in
  let matches = if holds then 1 else 0 in
  let note (c : Container.t) =
    note_pred ~container:c.Container.path ~kind ~candidates:1 ~matches
  in
  let static e =
    match static_value_containers ctx env e with Some (_ :: _ as cs) -> Some cs | _ -> None
  in
  (* bare-element comparisons fail the exact resolution (atomization may
     span several text nodes) but still read the immediate-text
     containers of the path's summary nodes — good enough to attribute *)
  let loose e =
    match static_snodes ctx env e with
    | [] -> None
    | snodes -> (
      match
        List.filter_map
          (fun (sn : Summary.node) -> Option.map (container ctx) sn.Summary.text_container)
          snodes
      with
      | [] -> None
      | cs -> Some cs)
  in
  let from_items items =
    List.find_map
      (function
        | Cval { cont; _ } | Att (_, Cval { cont; _ }) -> Some [ cont ]
        | Node id when id >= 0 -> (
          (* an element operand atomizes its text: attribute the
             comparison to the node's own immediate-text container *)
          match Structure_tree.value_pointers ctx.repo.Repository.tree id with
          | [||] -> None
          | values ->
            let cid, _ = values.(0) in
            Some [ container ctx cid ])
        | _ -> None)
      items
  in
  match static a, static b with
  | Some cs, _ | None, Some cs -> List.iter note cs
  | None, None -> (
    match loose a, loose b with
    | Some cs, _ | None, Some cs -> List.iter note cs
    | None, None -> (
      match from_items xs, from_items ys with
      | Some cs, _ | None, Some cs -> List.iter note cs
      | None, None -> ()))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run (repo : Repository.t) (query : Ast.expr) : item list =
  Xquec_obs.Trace.with_span ~name:"executor.run" @@ fun () ->
  reset_predicate_observations ();
  let ctx = mk_ctx repo in
  materialize ctx (eval ctx [] query)

let run_string (repo : Repository.t) (query : string) : item list =
  run repo (Xquery.Parser.parse query)

(** Evaluate with an attached EXPLAIN profile: returns the results and
    the root of the annotated operator tree (wall time, cardinalities,
    compressed vs. decompress-then-compare predicate counts). Works
    whether or not global telemetry is enabled. *)
let run_profiled (repo : Repository.t) (query : Ast.expr) :
    item list * Xquec_obs.Explain.node =
  let prof = Xquec_obs.Explain.create (short_expr ~limit:72 query) in
  reset_predicate_observations ();
  let ctx = { repo; prof = Some prof; prof_ops = true } in
  let t0 = Xquec_obs.Trace.now_us () in
  let items =
    with_cache_delta prof.Xquec_obs.Explain.root (fun () ->
        Xquec_obs.Trace.with_span ~name:"executor.run" (fun () ->
            materialize ctx (eval ctx [] query)))
  in
  let wall_us = Xquec_obs.Trace.now_us () -. t0 in
  (items, Xquec_obs.Explain.finish prof ~wall_us ~rows:(List.length items))

(** Serialize results, decompressing — the Decompress + XMLSerialize tail
    every plan ends with (§4). *)
let serialize (repo : Repository.t) (items : item list) : string =
  let ctx = mk_ctx repo in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf '\n';
      match it with
      | Node id -> Xmlkit.Printer.add_node buf (reconstruct ctx id)
      | Elem t -> Xmlkit.Printer.add_node buf t
      | Att (n, v) ->
        Buffer.add_string buf (Printf.sprintf "%s=\"%s\"" n (atom_string ctx v))
      | other -> Buffer.add_string buf (atom_string ctx other))
    items;
  Buffer.contents buf
