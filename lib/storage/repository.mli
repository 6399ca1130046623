(** Compressed repository: the name dictionary, structure tree, value
    containers, shared source models and structure summary for one
    document, with byte-level serialization for the size experiments. *)

(** A loaded repository. [containers] is indexed by container id;
    [original_size] is the source document's byte size (denominator of
    the compression factor). *)
type t = {
  dict : Name_dict.t;
  tree : Structure_tree.t;
  containers : Container.t array;
  summary : Summary.t;
  source_name : string;
  original_size : int;
}

(** Container by id. Raises [Invalid_argument] if out of range. *)
val container : t -> int -> Container.t

(** Container whose assignment path equals the argument, if any. *)
val find_container_by_path : t -> string -> Container.t option

(** Distinct source models (shared-model containers count once). *)
val models : t -> (int * Compress.Codec.model) list

(** Serialized byte size per component (the §2.2 storage layout). *)
type size_breakdown = {
  name_dict_bytes : int;
  tree_bytes : int;
      (** the succinct (BP bitvector + wavelet tags, v4) tree encoding
          actually stored *)
  containers_bytes : int;
  models_bytes : int;
  summary_bytes : int;
  index_bytes : int;
      (** navigation directories (rank/select + min-excess blocks) — the
          v4 counterpart of the old B+ page index *)
  total_bytes : int;
  essential_bytes : int;
      (** without access structures: values + models + dictionary +
          a forward-only structure tree *)
}

(** Measure the serialized size of each repository component. *)
val size_breakdown : t -> size_breakdown

(** 1 - cs/os, as defined in the paper's §5. *)
val compression_factor : t -> float

(** Serialize to the on-disk format v4: magic "XQC\x04", a
    format-flags byte with bit 1 set (succinct structure tree), then
    the v2 section layout with block-structured containers. The only
    format written; a save/load/save cycle is byte-exact. *)
val serialize : t -> string

(** Parse a serialized repository. Accepts the v4 format (magic
    "XQC\x04" + format-flags byte, succinct tree), the v3 format (magic
    "XQC\x03" + format-flags byte, packed tree), the v2 format (magic
    "XQC\x02", block-structured containers, plain-varint tree) and the
    legacy v1 record-wise format (no magic); v1 containers are
    re-blocked on load. A v3 image must carry exactly the packed-tree
    flag and a v4 image exactly the succinct-tree flag. Raises
    [Failure] on corrupt input, including a truncated header, a bad
    flags byte, and a string or varint running past the end. *)
val deserialize : string -> t
