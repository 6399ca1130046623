(** Structure tree (§2.2), succinct edition: the document shape as a
    balanced-parentheses bitvector, tag codes in a wavelet tree, value
    pointers and text-marker positions as the only per-node data. Ids
    are pre-order ranks; the paper's 3-valued (pre, post, level)
    structural ids are served by {!is_ancestor} (the pre-order interval
    [(id, last_descendant]], equivalent to pre/post containment) and
    {!level}. Child entries interleave
    element/attribute node ids (>= 0) with text markers (< 0, indexing
    the node's value pointers) so documents reconstruct in exact
    order. *)

(** The structure tree; node ids are pre-order ranks. Value pointers
    are mutable (for container recompression); the shape is not. *)
type t

(** Number of element/attribute nodes. *)
val node_count : t -> int

(** Name-dictionary code of a node's tag. *)
val tag : t -> int -> int

(** Parent node id; -1 at the root. *)
val parent : t -> int -> int

(** Depth of a node (0 at the root). *)
val level : t -> int -> int

(** (container id, record index) pairs, in document (slot) order. *)
val value_pointers : t -> int -> (int * int) array

(** Raw child entries (node ids and text markers), document order. *)
val child_entries : t -> int -> int array

(** [iter_child_entries t id f] calls [f] on each of {!child_entries}
    in order, merging text markers into one walk over the children
    without building the array. *)
val iter_child_entries : t -> int -> (int -> unit) -> unit

(** Child element/attribute node ids only. *)
val child_nodes : t -> int -> int list

(** First child element/attribute node, if any; always [id + 1] when
    present (pre-order numbering). *)
val first_child : t -> int -> int option

(** Next sibling element/attribute node in document order, if any. *)
val next_sibling : t -> int -> int option

(** Nodes in a node's subtree, itself included. *)
val subtree_size : t -> int -> int

(** Strict-ancestor test by pre-order interval containment. *)
val is_ancestor : t -> ancestor:int -> descendant:int -> bool

(** [children_with_tag t node tag]: child node ids carrying [tag],
    document order. *)
val children_with_tag : t -> int -> int -> int list

(** [children_where t node keep]: child node ids whose tag code
    satisfies [keep], document order, filtered in one pass over the
    children walk. *)
val children_where : t -> int -> (int -> bool) -> int list

(** Descendants of a node occupy the pre-id range (id, last_descendant]. *)
val last_descendant : t -> int -> int

(** All proper descendants of a node, document order. *)
val descendants : t -> int -> int list

(** [descendants_with_tag t node tag]: proper descendants carrying
    [tag], document order, answered by wavelet-tree rank/select over
    the subtree's pre-order interval rather than a subtree scan. *)
val descendants_with_tag : t -> int -> int -> int list

(** Rewrite value pointers after containers were recompressed. *)
val remap_values : t -> (int -> int array option) -> unit

(** Redirect one value pointer slot to a different container (used when
    splitting containers during recompression). *)
val set_value_container : t -> node:int -> slot:int -> container:int -> unit

(** {2 Document-order construction} *)

(** Accumulates nodes as the SAX loader walks the document. *)
type builder

(** Fresh empty builder. *)
val builder : unit -> builder

(** Register a node at element open; returns its (pre-order) id. *)
val open_node : builder -> tag:int -> parent:int -> level:int -> int

(** Register the element close. Post ranks are implicit in the
    balanced-parentheses shape; this is kept for interface symmetry. *)
val close_node : builder -> id:int -> unit

(** The id the next {!open_node} will return. *)
val next_id : builder -> int

(** Freeze into the succinct tree. [rev_children] and [rev_values] hold
    each node's child entries and value pointers in reverse document
    order (as accumulated by the loader). Raises [Failure] if child
    ids are not pre-order ranks or text markers are not sequential. *)
val finish :
  builder -> rev_children:int list array -> rev_values:(int * int) list array -> t

(** [deserialize_v2 s pos] parses a legacy (repository v2, plain-varint
    record) tree at offset [pos], returning it with the offset past it.
    Raises [Failure] on corrupt input. *)
val deserialize_v2 : string -> int -> t * int

(** [deserialize_v3 s pos] parses a packed (repository v3) tree: the v2
    record with child-entry codes and value record indices as zigzag
    delta+varint sequences. Raises [Failure] on corrupt input. *)
val deserialize_v3 : string -> int -> t * int

(** Append the succinct (repository v4) form: node count, the raw BP
    bitvector, the wavelet tag levels, then per node its delta-packed
    value record indices, marker count (only when it has values) and
    explicit marker positions (only for mixed content). No parent
    pointers, child lists, post ranks or page index are stored. *)
val serialize_succinct : Buffer.t -> t -> unit

(** Invert {!serialize_succinct}. Raises [Failure] on corrupt input. *)
val deserialize_succinct : string -> int -> t * int

(** Forward-only tree bytes for the essential-size experiment: shape
    bits + tag levels + marker info, no parent support, no value
    back-pointers, no rank directories. *)
val forward_only_bytes : t -> int

(** Size of the navigation directories (rank/select + min-excess blocks)
    — the v4 counterpart of the old B+ page index in the §2.2
    breakdown. *)
val index_bytes : t -> int
