(* Compressed repository: binds the name dictionary, structure tree, value
   containers, shared source models and structure summary for one
   document, with honest byte-level serialization for the size
   experiments. *)

type t = {
  dict : Name_dict.t;
  tree : Structure_tree.t;
  containers : Container.t array;
  summary : Summary.t;
  source_name : string;
  original_size : int;  (** serialized size of the uncompressed document *)
}

let container t id = t.containers.(id)

let find_container_by_path t path =
  Array.to_list t.containers |> List.find_opt (fun c -> String.equal c.Container.path path)

(** Distinct source models (containers in the same partition share one). *)
let models (t : t) : (int * Compress.Codec.model) list =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc (c : Container.t) ->
      if Hashtbl.mem seen c.Container.model_id then acc
      else begin
        Hashtbl.add seen c.Container.model_id ();
        (c.Container.model_id, c.Container.model) :: acc
      end)
    [] t.containers
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Size accounting (§2.2 / Fig. 6)                                     *)
(* ------------------------------------------------------------------ *)

type size_breakdown = {
  name_dict_bytes : int;
  tree_bytes : int;  (** succinct (BP + wavelet) encoding — what v4 images store *)
  containers_bytes : int;
  models_bytes : int;
  summary_bytes : int;
  index_bytes : int;
      (** navigation directories (rank/select + min-excess blocks), the v4
          counterpart of the old B+ page index *)
  total_bytes : int;  (** everything: the full repository on storage *)
  essential_bytes : int;
      (** without access-support structures: containers + models + dict +
          forward-only structure tree (no parent support, no directories,
          no summary) *)
}

let buffer_size f =
  let buf = Buffer.create 4096 in
  f buf;
  Buffer.length buf

let size_breakdown (t : t) : size_breakdown =
  let name_dict_bytes = Name_dict.serialized_size t.dict in
  let tree_bytes = buffer_size (fun b -> Structure_tree.serialize_succinct b t.tree) in
  let containers_bytes =
    Array.fold_left (fun acc c -> acc + buffer_size (fun b -> Container.serialize b c)) 0
      t.containers
  in
  let models_bytes =
    List.fold_left (fun acc (_, m) -> acc + Compress.Codec.model_size m) 0 (models t)
  in
  let summary_bytes = buffer_size (fun b -> Summary.serialize b t.summary) in
  let index_bytes = Structure_tree.index_bytes t.tree in
  let total_bytes =
    name_dict_bytes + tree_bytes + containers_bytes + models_bytes + summary_bytes
    + index_bytes
  in
  (* Essential = compressed values + models + dict + a forward-only tree
     (shape bits + tags + marker info, no parent support, no value
     back-pointers, no rank directories). *)
  let forward_tree_bytes = Structure_tree.forward_only_bytes t.tree in
  let container_codes_bytes =
    Array.fold_left (fun acc c -> acc + Container.compressed_bytes c) 0 t.containers
  in
  let essential_bytes =
    name_dict_bytes + forward_tree_bytes + container_codes_bytes + models_bytes
  in
  let result =
    {
      name_dict_bytes;
      tree_bytes;
      containers_bytes;
      models_bytes;
      summary_bytes;
      index_bytes;
      total_bytes;
      essential_bytes;
    }
  in
  if Xquec_obs.is_enabled () then begin
    let g name v = Xquec_obs.Metrics.set_gauge ("repository." ^ name) (float_of_int v) in
    g "total_bytes" total_bytes;
    g "tree_bytes" tree_bytes;
    g "containers_bytes" containers_bytes;
    g "models_bytes" models_bytes;
    g "summary_bytes" summary_bytes;
    g "original_bytes" t.original_size
  end;
  result

(** Compression factor 1 - cs/os as defined in §5. *)
let compression_factor (t : t) =
  let sizes = size_breakdown t in
  1.0 -. (float_of_int sizes.total_bytes /. float_of_int t.original_size)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

(* Format v2+ images start with a magic; v1 images start directly with
   the varint-prefixed source name, whose length byte can never collide
   with 'X'. v2, v3 and v4 share the section layout; v3 adds one
   format-flags byte right after the magic (bit 0 = structure tree
   stored in the packed delta+varint encoding) and always uses the
   block container encoding; v4 keeps the flags byte and sets bit 1
   instead (structure tree stored succinctly: BP bitvector + wavelet
   tags). Only v4 is written; v1 (records inline), v2 (block
   containers, legacy tree) and v3 (packed tree) still load, and
   re-saving them writes v4. *)
let v2_magic = "XQC\x02"

let v3_magic = "XQC\x03"

let v4_magic = "XQC\x04"

let flag_packed_tree = 1

let flag_succinct_tree = 2

let serialize (t : t) : string =
  Xquec_obs.Trace.with_span ~name:"repository.serialize"
    ~attrs:[ ("source", t.source_name) ]
  @@ fun () ->
  let buf = Buffer.create (1 lsl 16) in
  let add_varint = Compress.Rle.add_varint in
  let add_str s =
    add_varint buf (String.length s);
    Buffer.add_string buf s
  in
  Buffer.add_string buf v4_magic;
  Buffer.add_char buf (Char.chr flag_succinct_tree);
  add_str t.source_name;
  add_varint buf t.original_size;
  (* name dictionary *)
  let names = Name_dict.to_list t.dict in
  add_varint buf (List.length names);
  List.iter add_str names;
  (* source models *)
  let ms = models t in
  add_varint buf (List.length ms);
  List.iter
    (fun (id, m) ->
      add_varint buf id;
      add_str (Compress.Codec.algorithm_name (Compress.Codec.algorithm_of_model m));
      let body =
        match m with
        | Compress.Codec.M_huffman h -> Compress.Huffman.serialize_model h
        | Compress.Codec.M_alm a -> Compress.Alm.serialize_model a
        | Compress.Codec.M_arith a -> Compress.Arith.serialize_model a
        | Compress.Codec.M_hu_tucker h -> Compress.Hu_tucker.serialize_model h
        | Compress.Codec.M_bzip -> ""
        | Compress.Codec.M_numeric n -> Compress.Ipack.serialize_model n
      in
      add_str body)
    ms;
  (* summary first: tree value pointers are resolved against it on load *)
  Summary.serialize buf t.summary;
  Structure_tree.serialize_succinct buf t.tree;
  add_varint buf (Array.length t.containers);
  Array.iter (fun c -> Container.serialize buf c) t.containers;
  Buffer.contents buf

let deserialize (s : string) : t =
  Xquec_obs.Trace.with_span ~name:"repository.deserialize"
    ~attrs:[ ("bytes", string_of_int (String.length s)) ]
  @@ fun () ->
  let has_magic m =
    String.length s >= String.length m && String.equal (String.sub s 0 (String.length m)) m
  in
  let is_v2 = has_magic v2_magic
  and is_v3 = has_magic v3_magic
  and is_v4 = has_magic v4_magic in
  let has_any_magic = is_v2 || is_v3 || is_v4 in
  let container_deserialize =
    if has_any_magic then Container.deserialize else Container.deserialize_v1
  in
  let read_varint = Compress.Rle.read_varint in
  let pos = ref (if has_any_magic then String.length v2_magic else 0) in
  let truncated () = failwith "repository: truncated image" in
  (* v3 and v4 carry exactly one tree-encoding flag each *)
  if is_v3 || is_v4 then begin
    if !pos >= String.length s then truncated ();
    let expected = if is_v4 then flag_succinct_tree else flag_packed_tree in
    if Char.code s.[!pos] <> expected then failwith "repository: bad format flags";
    incr pos
  end;
  let tree_deserialize =
    if is_v4 then Structure_tree.deserialize_succinct
    else if is_v3 then Structure_tree.deserialize_v3
    else Structure_tree.deserialize_v2
  in
  let varint () =
    match read_varint s !pos with
    | exception Invalid_argument _ -> truncated ()
    | (v, p) ->
      pos := p;
      v
  in
  let str () =
    let n = varint () in
    if n < 0 || n > String.length s - !pos then truncated ();
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  let source_name = str () in
  let original_size = varint () in
  let dict = Name_dict.create () in
  let n_names = varint () in
  for _ = 1 to n_names do
    ignore (Name_dict.intern dict (str ()))
  done;
  let model_table : (int, Compress.Codec.model) Hashtbl.t = Hashtbl.create 16 in
  let n_models = varint () in
  for _ = 1 to n_models do
    let id = varint () in
    let alg = Compress.Codec.algorithm_of_name (str ()) in
    let body = str () in
    let model =
      match alg with
      | Compress.Codec.Huffman_alg ->
        Compress.Codec.M_huffman (Compress.Huffman.deserialize_model body)
      | Compress.Codec.Alm_alg -> Compress.Codec.M_alm (Compress.Alm.deserialize_model body)
      | Compress.Codec.Arith_alg ->
        Compress.Codec.M_arith (Compress.Arith.deserialize_model body)
      | Compress.Codec.Hu_tucker_alg ->
        Compress.Codec.M_hu_tucker (Compress.Hu_tucker.deserialize_model body)
      | Compress.Codec.Bzip_alg -> Compress.Codec.M_bzip
      | Compress.Codec.Numeric_alg ->
        Compress.Codec.M_numeric (Compress.Ipack.deserialize_model body)
    in
    Hashtbl.add model_table id model
  done;
  let (summary, p) = Summary.deserialize ~dict s !pos in
  pos := p;
  let (tree, p) = tree_deserialize s !pos in
  pos := p;
  let n_containers = varint () in
  let containers =
    Array.init n_containers (fun _ ->
        let (c, p) = container_deserialize ~models:model_table s !pos in
        pos := p;
        c)
  in
  (* resolve value-pointer container ids by walking tree and summary in
     lockstep: each node's text slots use its summary node's text
     container; an attribute node's single slot uses its own *)
  let rec resolve node (snode : Summary.node) =
    (* every value slot of a node lives in its summary node's container:
       an element's slots are its text children, an attribute node's
       single slot is its value *)
    let nvalues = Array.length (Structure_tree.value_pointers tree node) in
    if nvalues > 0 then begin
      match snode.Summary.text_container with
      | Some c ->
        for slot = 0 to nvalues - 1 do
          Structure_tree.set_value_container tree ~node ~slot ~container:c
        done
      | None -> failwith "repository: value without container"
    end;
    List.iter
      (fun child ->
        match Summary.find_child snode (Structure_tree.tag tree child) with
        | Some child_snode -> resolve child child_snode
        | None -> failwith "repository: summary does not cover the tree")
      (Structure_tree.child_nodes tree node)
  in
  (if Structure_tree.node_count tree > 0 then
     match Summary.find_child summary.Summary.root (Structure_tree.tag tree 0) with
     | Some root_snode -> resolve 0 root_snode
     | None -> failwith "repository: no root summary node");
  { dict; tree; containers; summary; source_name; original_size }
