(** Balanced-parentheses succinct tree over a {!Bitvec.t} — repository
    format v4's pointer-free structure tree. The document shape is 2n
    bits ('(' = open, ')' = close, document order); node ids are
    pre-order ranks, so node [i] sits at the position of the [i+1]-th
    set bit and all navigation is rank/select plus excess search.
    Excess search steps bit by bit only to a byte boundary, then byte by
    byte through per-byte excess tables, and jumps 256-bit blocks with a
    range-min directory. The directory is in-memory only, rebuilt at
    load, and the byte tables are constants: the stored form is the raw
    bitvector alone. *)

(** A parsed balanced-parentheses sequence with navigation support. *)
type t

(** [of_bits bits] validates and indexes a parentheses sequence.
    Raises [Failure] if [bits] is not balanced (odd length, opens and
    closes out of balance, or a close before its open). *)
val of_bits : Bitvec.t -> t

(** The underlying bitvector (what the v4 image serializes). *)
val bits : t -> Bitvec.t

(** Number of nodes (half the bit length). *)
val node_count : t -> int

(** [excess t j] is opens minus closes in positions [0, j]; [excess t
    (-1) = 0]. The depth of the node opened at [j] plus one, when bit
    [j] is an open. *)
val excess : t -> int -> int

(** [pos_of_node t i]: bit position of node [i]'s open parenthesis.
    Raises [Invalid_argument] unless [0 <= i < node_count t]. *)
val pos_of_node : t -> int -> int

(** [node_of_open t p]: the node whose open parenthesis is at [p]. *)
val node_of_open : t -> int -> int

(** [findclose t p]: position of the close matching the open at [p]. *)
val findclose : t -> int -> int

(** [enclose t p]: open position of the nearest enclosing node of the
    open at [p], or [None] at the root. *)
val enclose : t -> int -> int option

(** [parent t i]: parent node id, or [-1] for the root. *)
val parent : t -> int -> int

(** [depth t i]: root has depth 0. *)
val depth : t -> int -> int

(** First child in document order, if any. Always [i + 1] when present
    (pre-order numbering). *)
val first_child : t -> int -> int option

(** Next sibling in document order, if any. *)
val next_sibling : t -> int -> int option

(** [fold_children t i f init] folds [f] over the children of [i] in
    document order. It walks the children's closes: one select for [i]
    and one findclose per child, no rank. *)
val fold_children : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** All children of [i] in document order. *)
val children : t -> int -> int list

(** Number of children of [i]. *)
val degree : t -> int -> int

(** Largest node id in [i]'s subtree ([i] itself for a leaf). *)
val last_descendant : t -> int -> int

(** Nodes in [i]'s subtree, including [i]. *)
val subtree_size : t -> int -> int

(** [is_ancestor t ~ancestor ~descendant]: strict ancestorship, by
    pre-order interval containment. *)
val is_ancestor : t -> ancestor:int -> descendant:int -> bool

(** Compact directory footprint beyond the raw bits: the bitvector's
    rank directory plus 2 B of minimum-excess per 256-bit block (the
    in-memory segment tree is rebuilt at load). *)
val overhead_bytes : t -> int
