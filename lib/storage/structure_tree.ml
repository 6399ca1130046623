(* Structure tree (§2.2), succinct edition (repository format v4): the
   document shape lives in a balanced-parentheses bitvector
   ({!Bp_tree}), tag codes in a wavelet tree keyed off the name
   dictionary, and only the value pointers and text-marker positions
   remain as per-node data. IDs are pre-order ranks, so they coincide
   with document order and with the open-paren ranks of the BP
   sequence; the paper's future-work 3-valued (pre, post, level)
   structural ids are served by [is_ancestor] (the pre-order interval
   (id, last_descendant], equivalent to pre/post containment) and
   [level], answered by rank/select instead of being stored.

   Child entries interleave element/attribute node ids (>= 0) with text
   markers (< 0): marker -(slot+1) points at the node's value pointer
   [slot]. Markers always reference slots 0, 1, ... in document order
   (the SAX loader emits them that way), so the succinct form only
   records how many element children precede each marker. *)

type t = {
  bp : Bp_tree.t;  (* shape: one '(' ')' pair per element/attribute *)
  tags : Bitvec.Wavelet.t;  (* name-dictionary code per node, pre-order *)
  marks : int array array;
      (* per node: for text marker slot s, the number of child element
         entries before it in document order (non-decreasing) *)
  values : (int * int) array array; (* (container id, record index) per node *)
}

let node_count t = Bp_tree.node_count t.bp

let tag t id = Bitvec.Wavelet.access t.tags id
let parent t id = Bp_tree.parent t.bp id
let level t id = Bp_tree.depth t.bp id
let value_pointers t id = t.values.(id)

(** Child element/attribute node ids only, document order. *)
let child_nodes t id = Bp_tree.children t.bp id

(** First child element/attribute node, if any (always [id + 1]). *)
let first_child t id = Bp_tree.first_child t.bp id

(** Next sibling element/attribute node, if any. *)
let next_sibling t id = Bp_tree.next_sibling t.bp id

(** Nodes in the subtree of [id], including [id]. *)
let subtree_size t id = Bp_tree.subtree_size t.bp id

(** Child entries of [id] in document order — the BP children walk
    with the text markers merged in on the fly: marker [s] goes right
    before the child whose index is [marks.(s)], or after the last
    child. *)
let iter_child_entries t id f =
  let mk = t.marks.(id) in
  let s = ref 0 in
  let markers_before ci =
    while !s < Array.length mk && mk.(!s) <= ci do
      f (-(!s + 1));
      incr s
    done
  in
  let nkids =
    Bp_tree.fold_children t.bp id
      (fun ci c ->
        markers_before ci;
        f c;
        ci + 1)
      0
  in
  markers_before nkids

(** Raw child entries (node ids and text markers), document order. *)
let child_entries t id =
  let acc = ref [] in
  iter_child_entries t id (fun e -> acc := e :: !acc);
  Array.of_list (List.rev !acc)

(** Strict-ancestor test by pre-order interval containment (one
    findclose on the candidate ancestor). *)
let is_ancestor t ~ancestor ~descendant =
  Bp_tree.is_ancestor t.bp ~ancestor ~descendant

(** Children whose tag code satisfies [keep], document order, in one
    pass over the BP children walk. *)
let children_where t id keep =
  List.rev
    (Bp_tree.fold_children t.bp id
       (fun acc c -> if keep (Bitvec.Wavelet.access t.tags c) then c :: acc else acc)
       [])

(** children with a given tag code, preserving document order. *)
let children_with_tag t id tag_code = children_where t id (fun tg -> tg = tag_code)

(** Last descendant (pre id) of [id]: descendants are exactly the pre ids
    in (id, last_descendant id]. *)
let last_descendant t id = Bp_tree.last_descendant t.bp id

(** All descendants of [id] (excluding [id]), document order. *)
let descendants t id =
  let stop = last_descendant t id in
  List.init (stop - id) (fun i -> id + 1 + i)

(** Descendants of [id] carrying [tag_code], document order, by
    wavelet-tree rank/select over the subtree's pre-order interval —
    O(occurrences * width) instead of a scan of the whole subtree. *)
let descendants_with_tag t id tag_code =
  let stop = last_descendant t id in
  let acc = ref [] in
  let k = ref (Bitvec.Wavelet.rank t.tags ~code:tag_code (id + 1)) in
  let continue = ref true in
  while !continue do
    incr k;
    match Bitvec.Wavelet.select t.tags ~code:tag_code !k with
    | Some p when p <= stop -> acc := p :: !acc
    | _ -> continue := false
  done;
  List.rev !acc

(** Rewrite value pointers after containers were recompressed (their
    records re-sorted): [remap cont_id] returns the old-to-new index
    permutation for that container, or None if it is unchanged. *)
let set_value_container (t : t) ~node ~slot ~container =
  let (_, idx) = t.values.(node).(slot) in
  t.values.(node).(slot) <- (container, idx)

let remap_values (t : t) (remap : int -> int array option) : unit =
  Array.iteri
    (fun node ptrs ->
      Array.iteri
        (fun slot (cont, idx) ->
          match remap cont with
          | Some perm -> t.values.(node).(slot) <- (cont, perm.(idx))
          | None -> ignore (node, ptrs))
        ptrs)
    t.values

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Shared assembly: turn explicit per-node arrays (from the builder or
   from a v1/v2/v3 image) into the succinct form, validating the
   pre-order and marker invariants the bitvector encoding relies on. *)
let of_arrays ~(tags : int array) ~(parents : int array)
    ~(children : int array array) ~(values : (int * int) array array) : t =
  let n = Array.length tags in
  (* text-marker positions, checking markers are sequential per node *)
  let marks =
    Array.mapi
      (fun id entries ->
        let m = Array.fold_left (fun acc e -> if e < 0 then acc + 1 else acc) 0 entries in
        if m > Array.length values.(id) then
          failwith "structure_tree: text marker without value";
        let mk = Array.make m 0 in
        let mi = ref 0 and ci = ref 0 in
        Array.iter
          (fun e ->
            if e >= 0 then incr ci
            else begin
              if -e - 1 <> !mi then failwith "structure_tree: non-sequential text markers";
              mk.(!mi) <- !ci;
              incr mi
            end)
          entries;
        mk)
      children
  in
  (* balanced-parentheses bits by an explicit-stack DFS over the child
     lists, checking ids really are pre-order ranks *)
  let data = Bytes.make (((2 * n) + 7) / 8) '\000' in
  let pos = ref 0 in
  let emit_open () =
    Bytes.set data (!pos lsr 3)
      (Char.chr (Char.code (Bytes.get data (!pos lsr 3)) lor (1 lsl (!pos land 7))));
    incr pos
  in
  let next = ref 0 in
  let visit stack id par =
    if id >= n || id <> !next then failwith "structure_tree: children not in pre-order";
    if parents.(id) <> par then failwith "structure_tree: parent pointer mismatch";
    incr next;
    emit_open ();
    stack := (id, ref 0) :: !stack
  in
  if n > 0 then begin
    let stack = ref [] in
    visit stack 0 (-1);
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | (id, k) :: rest ->
        let entries = children.(id) in
        while !k < Array.length entries && entries.(!k) < 0 do
          incr k
        done;
        if !k < Array.length entries then begin
          let c = entries.(!k) in
          incr k;
          visit stack c id
        end
        else begin
          incr pos (* close: bit stays 0 *);
          stack := rest
        end
    done;
    if !next <> n then failwith "structure_tree: disconnected nodes"
  end;
  let bp = Bp_tree.of_bits (Bitvec.of_bytes ~len:(2 * n) data) in
  let width = Bitvec.Wavelet.width_for (Array.fold_left max 0 tags) in
  { bp; tags = Bitvec.Wavelet.build ~width tags; marks; values }

type builder = {
  mutable b_tags : int list; (* reversed: id order *)
  mutable b_parents : int list;
  mutable next_id : int;
}

let builder () = { b_tags = []; b_parents = []; next_id = 0 }

(* The builder is driven in document order: open_node returns the fresh id.
   The loader accumulates child lists and value pointers itself (it knows
   them only as parsing proceeds) and hands them to [finish] as reversed
   per-node lists; post ranks and levels are implicit in the BP shape. *)
let open_node (b : builder) ~tag ~parent ~level : int =
  ignore level;
  let id = b.next_id in
  b.next_id <- id + 1;
  b.b_tags <- tag :: b.b_tags;
  b.b_parents <- parent :: b.b_parents;
  id

let close_node (b : builder) ~id = ignore (b, id)

let next_id (b : builder) = b.next_id

let finish (b : builder) ~(rev_children : int list array)
    ~(rev_values : (int * int) list array) : t =
  let tags = Array.of_list (List.rev b.b_tags) in
  let parents = Array.of_list (List.rev b.b_parents) in
  let children = Array.map (fun l -> Array.of_list (List.rev l)) rev_children in
  let values = Array.map (fun l -> Array.of_list (List.rev l)) rev_values in
  of_arrays ~tags ~parents ~children ~values

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Succinct variant (repository format v4): the shape as the raw BP
   bitvector, tags as the wavelet tree's level bitvectors, then per
   node its value record indices (delta-packed), its marker count when
   it has values at all, and explicit marker positions only for mixed
   content (both markers and element children). Parent pointers, child
   lists, post ranks and the B+ page index are not stored — navigation
   rebuilds them from rank/select directories at load time. *)
let serialize_succinct buf (t : t) =
  let add_varint = Compress.Rle.add_varint in
  let n = node_count t in
  add_varint buf n;
  Bitvec.serialize buf (Bp_tree.bits t.bp);
  Bitvec.Wavelet.serialize buf t.tags;
  for id = 0 to n - 1 do
    Compress.Ipack.add_deltas buf (Array.map snd t.values.(id));
    if Array.length t.values.(id) > 0 then begin
      let m = Array.length t.marks.(id) in
      add_varint buf m;
      if m > 0 && Bp_tree.first_child t.bp id <> None then
        Compress.Ipack.add_deltas buf t.marks.(id)
    end
  done

let deserialize_succinct (s : string) (pos : int) : t * int =
  let read_varint = Compress.Rle.read_varint in
  let (n, pos) = read_varint s pos in
  let (bits, pos) = Bitvec.deserialize s pos in
  if Bitvec.length bits <> 2 * n then failwith "structure_tree: BP length mismatch";
  let bp = Bp_tree.of_bits bits in
  let (tags, pos) = Bitvec.Wavelet.deserialize s pos in
  if Bitvec.Wavelet.length tags <> n then failwith "structure_tree: tag count mismatch";
  let values = Array.make n [||] in
  let marks = Array.make n [||] in
  let pos = ref pos in
  for id = 0 to n - 1 do
    let (idxs, p) = Compress.Ipack.read_deltas s !pos in
    pos := p;
    (* container ids are re-resolved against the structure summary by the
       repository loader; -1 is the placeholder *)
    values.(id) <- Array.map (fun idx -> (-1, idx)) idxs;
    if Array.length idxs > 0 then begin
      let (m, p) = read_varint s !pos in
      pos := p;
      if m > 0 && Bp_tree.first_child bp id <> None then begin
        let (mk, p) = Compress.Ipack.read_deltas s !pos in
        pos := p;
        if Array.length mk <> m then failwith "structure_tree: marker count mismatch";
        marks.(id) <- mk
      end
      else marks.(id) <- Array.make m 0
    end
  done;
  ({ bp; tags; marks; values }, !pos)

(* Readers for the explicit-record trees of repository formats v2 and
   v3, which are no longer written. Both store the node count, then per
   node its tag, parent delta [id - parent], child entries and value
   record indices (the container id is derivable from the node's
   summary path). A child entry is coded [2 * (c - id)] for a node id
   [c] and [2 * m - 1] for text marker [-m]. v2 stores the counts and
   codes as plain varints; v3 stores the codes and indices as zigzag
   varint deltas ({!Compress.Ipack.read_deltas}). *)
let deserialize_v2 (s : string) (pos : int) : t * int =
  let read_varint = Compress.Rle.read_varint in
  let (n, pos) = read_varint s pos in
  let tags = Array.make n 0 in
  let parents = Array.make n 0 in
  let children = Array.make n [||] in
  let values = Array.make n [||] in
  let pos = ref pos in
  for id = 0 to n - 1 do
    let (tag, p) = read_varint s !pos in
    let (pdelta, p) = read_varint s p in
    let (nk, p) = read_varint s p in
    let p = ref p in
    let kids =
      Array.init nk (fun _ ->
          let (d, np) = read_varint s !p in
          p := np;
          if d land 1 = 0 then id + (d / 2) else -((d + 1) / 2))
    in
    let (nv, np) = read_varint s !p in
    p := np;
    let vals =
      Array.init nv (fun _ ->
          let (idx, np) = read_varint s !p in
          p := np;
          (-1, idx))
    in
    tags.(id) <- tag;
    parents.(id) <- id - pdelta;
    children.(id) <- kids;
    values.(id) <- vals;
    pos := !p
  done;
  (of_arrays ~tags ~parents ~children ~values, !pos)

let deserialize_v3 (s : string) (pos : int) : t * int =
  let read_varint = Compress.Rle.read_varint in
  let (n, pos) = read_varint s pos in
  let tags = Array.make n 0 in
  let parents = Array.make n 0 in
  let children = Array.make n [||] in
  let values = Array.make n [||] in
  let pos = ref pos in
  for id = 0 to n - 1 do
    let (tag, p) = read_varint s !pos in
    let (pdelta, p) = read_varint s p in
    let (codes, p) = Compress.Ipack.read_deltas s p in
    let (idxs, p) = Compress.Ipack.read_deltas s p in
    tags.(id) <- tag;
    parents.(id) <- id - pdelta;
    children.(id) <-
      Array.map (fun d -> if d land 1 = 0 then id + (d / 2) else -((d + 1) / 2)) codes;
    values.(id) <- Array.map (fun idx -> (-1, idx)) idxs;
    pos := p
  done;
  (of_arrays ~tags ~parents ~children ~values, !pos)

(** Forward-only tree bytes for the essential-size experiment: shape
    bits, tag levels and text-marker info, without parent support or
    value back-pointers (and without any rank directory). *)
let forward_only_bytes (t : t) =
  let buf = Buffer.create 4096 in
  Compress.Rle.add_varint buf (node_count t);
  Bitvec.serialize buf (Bp_tree.bits t.bp);
  Bitvec.Wavelet.serialize buf t.tags;
  for id = 0 to node_count t - 1 do
    let m = Array.length t.marks.(id) in
    Compress.Rle.add_varint buf m;
    if m > 0 && Bp_tree.first_child t.bp id <> None then Compress.Ipack.add_deltas buf t.marks.(id)
  done;
  Buffer.length buf

(** Size of the navigation directories alone (rank/select and
    minimum-excess blocks over the BP bits and tag levels) — the v4
    counterpart of the old B+ page index for the §2.2 occupancy
    breakdown. *)
let index_bytes (t : t) =
  Bp_tree.overhead_bytes t.bp + Bitvec.Wavelet.overhead_bytes t.tags
