(* Balanced-parentheses succinct tree (repository format v4): the
   document shape as 2n bits — '(' on element open, ')' on close, in
   document order — so node i's identity is the position of the i-th
   open paren and every navigation primitive (parent, first child, next
   sibling, subtree size, depth, post rank) is answered by rank/select
   plus excess search over the bitvector, with no per-node pointers.

   Excess search works at three granularities. Inside a byte it takes
   single-bit steps, only up to the next byte boundary. Across bytes it
   uses per-byte tables (net excess, minimum prefix excess, and the
   first position reaching each relative excess -8..-1, plus the mirror
   tables for scanning backward), so a byte is skipped or resolved with
   one or two lookups. Across 256-bit blocks it uses a one-level
   range-min directory (the practical core of the rmM-tree of Navarro &
   Sadakane): the minimum excess per block, with a segment tree over
   the block minima to locate the nearest block that can contain the
   sought excess. All searches here look for an excess value strictly
   below every excess on the skipped prefix/suffix, so minima alone
   decide containment (the excess walk is ±1-continuous: a byte or
   block whose minimum is <= the target and which is entered above the
   target must cross it). Searches are relative to the excess where
   they start; an absolute excess (one rank) is only needed to jump
   blocks.

   The block minima and segment tree are in-memory only, rebuilt at
   load, and the byte tables are constants; the serialized form is the
   raw bitvector alone. *)

let block_bits = 256

(* +1 for an open bit, -1 for a close *)
let bit_step b = (2 * b) - 1

(* Per-byte tables, bits LSB-first as stored. Forward: relative excess
   after each bit, starting from 0 before bit 0. Backward: relative
   excess at positions 7, 6, ..., 0 measured from position 7 (so 0 at
   position 7, and E(p-1) = E(p) - step(p)).
   byte_net.(c): net excess of the byte;
   fwd_min.(c): minimum forward relative excess over the 8 positions;
   fwd_pos.(c * 8 + k): first position whose relative excess is -(k+1),
   8 if none;
   bwd_min.(c): minimum backward relative excess over the 8 positions
   (at most 0);
   bwd_pos.(c * 8 + k): last position whose relative excess is -k, -1 if
   none (backward values are at least -7). *)
let byte_net = Array.make 256 0
let fwd_min = Array.make 256 0
let fwd_pos = Array.make (256 * 8) 8
let bwd_min = Array.make 256 0
let bwd_pos = Array.make (256 * 8) (-1)

let () =
  for c = 0 to 255 do
    let e = ref 0 and m = ref max_int in
    for bit = 0 to 7 do
      e := !e + bit_step (c lsr bit land 1);
      if !e < !m then m := !e;
      if !e < 0 && fwd_pos.((c * 8) - !e - 1) = 8 then fwd_pos.((c * 8) - !e - 1) <- bit
    done;
    byte_net.(c) <- !e;
    fwd_min.(c) <- !m;
    let e = ref 0 and m = ref 0 in
    for bit = 7 downto 0 do
      if !e <= 0 && bwd_pos.((c * 8) - !e) < 0 then bwd_pos.((c * 8) - !e) <- bit;
      if !e < !m then m := !e;
      e := !e - bit_step (c lsr bit land 1)
    done;
    bwd_min.(c) <- !m
  done

type t = {
  bits : Bitvec.t;  (* 2n bits; bit set = '(' *)
  data : Bytes.t;  (* the bitvector's raw bytes *)
  n : int;  (* node count *)
  block_min : int array;  (* min excess E(j) per block of positions *)
  seg : int array;  (* 1-based segment tree over block minima *)
  seg_size : int;  (* leaf count (power of two) *)
}

let bits t = t.bits

let node_count t = t.n

let[@inline] byte_at data k = Char.code (Bytes.unsafe_get data k)

let[@inline] bit_at data j = byte_at data (j lsr 3) lsr (j land 7) land 1

(* E(j): number of opens minus closes in positions [0, j]. E(-1) = 0. *)
let excess t j = (2 * Bitvec.rank1 t.bits (j + 1)) - (j + 1)

let of_bits (bits : Bitvec.t) : t =
  let len = Bitvec.length bits in
  if len land 1 <> 0 then failwith "Bp_tree.of_bits: odd length";
  let n = len / 2 in
  if Bitvec.ones bits <> n then failwith "Bp_tree.of_bits: unbalanced";
  let data = Bitvec.raw_bytes bits in
  let nblocks = (len + block_bits - 1) / block_bits in
  let block_min = Array.make (max nblocks 1) max_int in
  let e = ref 0 in
  let note j m =
    if m < 0 then failwith "Bp_tree.of_bits: close before open";
    let b = j / block_bits in
    if m < block_min.(b) then block_min.(b) <- m
  in
  (* whole bytes by table, the partial last byte bit by bit *)
  let full = len lsr 3 in
  for k = 0 to full - 1 do
    let c = byte_at data k in
    note (k lsl 3) (!e + fwd_min.(c));
    e := !e + byte_net.(c)
  done;
  for j = full lsl 3 to len - 1 do
    e := !e + bit_step (bit_at data j);
    note j !e
  done;
  if len > 0 && !e <> 0 then failwith "Bp_tree.of_bits: unbalanced";
  let seg_size =
    let s = ref 1 in
    while !s < nblocks do
      s := !s * 2
    done;
    !s
  in
  let seg = Array.make (2 * seg_size) max_int in
  for b = 0 to nblocks - 1 do
    seg.(seg_size + b) <- block_min.(b)
  done;
  for i = seg_size - 1 downto 1 do
    seg.(i) <- min seg.(2 * i) seg.((2 * i) + 1)
  done;
  { bits; data; n; block_min; seg; seg_size }

(* Leftmost block index >= [l] whose min excess is <= [target]; -1 if
   none. *)
let leftmost_block_le t ~l ~target =
  let rec go node lo hi =
    if hi <= l || t.seg.(node) > target then -1
    else if hi - lo = 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      let r = go (2 * node) lo mid in
      if r >= 0 then r else go ((2 * node) + 1) mid hi
    end
  in
  go 1 0 t.seg_size

(* Rightmost block index < [r] whose min excess is <= [target]; -1 if
   none. *)
let rightmost_block_le t ~r ~target =
  let rec go node lo hi =
    if lo >= r || t.seg.(node) > target then -1
    else if hi - lo = 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      let x = go ((2 * node) + 1) mid hi in
      if x >= 0 then x else go (2 * node) lo mid
    end
  in
  go 1 0 t.seg_size

(* Smallest j in [from, stop) with E(j) - E(from-1) = [d] (d < 0), or
   -1: bit steps up to a byte boundary, byte steps while a whole byte
   fits, bit steps for the tail. *)
let scan_fwd data ~from ~stop ~d =
  let d = ref d and j = ref from and result = ref (-1) in
  while !result < 0 && !j < stop && !j land 7 <> 0 do
    d := !d - bit_step (bit_at data !j);
    if !d = 0 then result := !j else incr j
  done;
  while !result < 0 && !j + 8 <= stop do
    let c = byte_at data (!j lsr 3) in
    if fwd_min.(c) <= !d then result := !j + fwd_pos.((c * 8) - !d - 1)
    else begin
      d := !d - byte_net.(c);
      j := !j + 8
    end
  done;
  while !result < 0 && !j < stop do
    d := !d - bit_step (bit_at data !j);
    if !d = 0 then result := !j else incr j
  done;
  !result

(* Largest j in [stop, from] with E(j) - E(from) = [d] (d <= 0), or -1
   (stop is byte-aligned). The mirror of {!scan_fwd}. *)
let scan_bwd data ~from ~stop ~d =
  let d = ref d and j = ref from and result = ref (-1) in
  while !result < 0 && !j >= stop && !j land 7 <> 7 do
    if !d = 0 then result := !j
    else begin
      d := !d + bit_step (bit_at data !j);
      decr j
    end
  done;
  while !result < 0 && !j >= stop do
    let c = byte_at data (!j lsr 3) in
    if bwd_min.(c) <= !d then result := (!j land lnot 7) + bwd_pos.((c * 8) - !d)
    else begin
      d := !d + byte_net.(c);
      j := !j - 8
    end
  done;
  !result

(* Smallest j >= [from] with E(j) = E(from-1) + [d]. Precondition (holds
   for every caller): d < 0, and the excess stays above the target on
   [from-1, answer). Raises if there is no answer. *)
let fwd_search t ~from ~d =
  let len = Bitvec.length t.bits in
  let from_block = from / block_bits in
  match scan_fwd t.data ~from ~stop:(min len ((from_block + 1) * block_bits)) ~d with
  | j when j >= 0 -> j
  | _ -> (
    let target = excess t (from - 1) + d in
    match leftmost_block_le t ~l:(from_block + 1) ~target with
    | -1 -> failwith "Bp_tree.fwd_search: not found"
    | b ->
      let start = b * block_bits in
      let stop = min len (start + block_bits) in
      match scan_fwd t.data ~from:start ~stop ~d:(target - excess t (start - 1)) with
      | -1 -> failwith "Bp_tree.fwd_search: not found"
      | j -> j)

(* Largest j < [from] with E(j) = E(from-1) + [d], counting the virtual
   position -1 with E(-1) = 0. Precondition: d <= 0, and the excess
   stays above the target on (answer, from). [None] if there is no
   such j. *)
let bwd_search t ~from ~d =
  let from_block = from / block_bits in
  match scan_bwd t.data ~from:(from - 1) ~stop:(from_block * block_bits) ~d with
  | j when j >= 0 -> Some j
  | _ -> (
    let target = excess t (from - 1) + d in
    if target < 0 then None
    else
      match rightmost_block_le t ~r:from_block ~target with
      | -1 -> if target = 0 then Some (-1) else None
      | b ->
        let last = ((b + 1) * block_bits) - 1 in
        let j = scan_bwd t.data ~from:last ~stop:(b * block_bits) ~d:(target - excess t last) in
        if j >= 0 then Some j else None)

(* --- parenthesis-level operations ----------------------------------- *)

let pos_of_node t i =
  if i < 0 || i >= t.n then invalid_arg "Bp_tree.pos_of_node";
  Bitvec.select1 t.bits (i + 1)

let node_of_open t p = Bitvec.rank1 t.bits (p + 1) - 1

let findclose t p = fwd_search t ~from:(p + 1) ~d:(-1)

(* The enclosing open is one past the last position before [p] whose
   excess is two below E(p), i.e. one below E(p-1). *)
let enclose t p =
  if p <= 0 then None
  else match bwd_search t ~from:p ~d:(-1) with Some j -> Some (j + 1) | None -> None

(* --- node-level operations (ids are pre-order ranks) ---------------- *)

let parent t i =
  match enclose t (pos_of_node t i) with None -> -1 | Some q -> node_of_open t q

let depth t i = excess t (pos_of_node t i) - 1

let is_open t j = j < Bitvec.length t.bits && bit_at t.data j = 1

let first_child t i = if is_open t (pos_of_node t i + 1) then Some (i + 1) else None

(* Nodes in the subtree opened at [p] and closed at [c]. *)
let[@inline] span p c = (c - p + 1) / 2

let next_sibling t i =
  let p = pos_of_node t i in
  let c = findclose t p in
  if is_open t (c + 1) then Some (i + span p c) else None

(* Walk the children of [i] by their closes: the child opened at [q]
   closes at [c = findclose q], holds [(c-q+1)/2] nodes, and the next
   sibling (if any) opens at [c+1]. One select for the parent, one
   findclose per child, no rank. *)
let fold_children t i f init =
  let rec go q id acc =
    if is_open t q then
      let c = findclose t q in
      go (c + 1) (id + span q c) (f acc id)
    else acc
  in
  go (pos_of_node t i + 1) (i + 1) init

let children t i = List.rev (fold_children t i (fun acc c -> c :: acc) [])

let degree t i = fold_children t i (fun k _ -> k + 1) 0

let subtree_size t i =
  let p = pos_of_node t i in
  span p (findclose t p)

let last_descendant t i = i + subtree_size t i - 1

let is_ancestor t ~ancestor ~descendant =
  ancestor < descendant && last_descendant t ancestor >= descendant

(* Compact directory footprint past the raw bits: the bitvector's rank
   directory plus 2 bytes of block-minimum per 256-bit block (the
   segment tree is rebuilt at load, as are all directories). *)
let overhead_bytes t = Bitvec.overhead_bytes t.bits + (2 * Array.length t.block_min)
