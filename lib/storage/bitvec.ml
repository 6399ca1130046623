(* Succinct bitvector with rank/select support (the substrate of the
   balanced-parentheses structure tree, repository format v4). Bits are
   packed 8 per byte, LSB-first within a byte. On storage only the
   [(len+7)/8]-byte prefix is written; in memory the bits live in a copy
   padded with zero bytes to whole 64-bit words, so every word read is
   in bounds.

   The rank directory is the classic two-level scheme — a cumulative
   popcount every superblock of 512 bits plus a per-64-bit-word count
   relative to its superblock — so [rank] costs two directory lookups
   and one masked SWAR popcount of the partial word. [select] is a
   binary search over the directory, a byte scan of one word and a
   lookup in a 256x8 select-in-byte table. The directories are rebuilt
   at load time, word by word; the on-disk bytes are exactly the raw
   bits. *)

let bits_per_super = 512
let bits_per_block = 64
let blocks_per_super = bits_per_super / bits_per_block

(* popcount per byte value *)
let popcount8 =
  let t = Array.make 256 0 in
  for i = 1 to 255 do
    t.(i) <- t.(i lsr 1) + (i land 1)
  done;
  t

(* select_in_byte.(c * 8 + j): position of the (j+1)-th set bit of byte
   [c]; 8 when [c] has fewer set bits. *)
let select_in_byte =
  let t = Array.make (256 * 8) 8 in
  for c = 0 to 255 do
    let j = ref 0 in
    for bit = 0 to 7 do
      if c lsr bit land 1 = 1 then begin
        t.((c * 8) + !j) <- bit;
        incr j
      end
    done
  done;
  t

let[@inline] popcount64 (x : int64) =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x = add (logand x 0x3333333333333333L) (logand (shift_right_logical x 2) 0x3333333333333333L) in
  let x = logand (add x (shift_right_logical x 4)) 0x0f0f0f0f0f0f0f0fL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* Select samples: every [select_sample]-th set (clear) bit, the word
   that holds it. *)
let select_sample = 64

type t = {
  len : int;  (* length in bits *)
  data : Bytes.t;  (* 8 * ceil (len/64) bytes; bits past [len] are zero *)
  super_ranks : int array;  (* ones before each superblock, one past the end *)
  block_ranks : int array;  (* ones since the superblock start, per word, one past the end *)
  ones : int;
  sel1 : int array;  (* word of the (j * select_sample + 1)-th set bit *)
  sel0 : int array;  (* word of the (j * select_sample + 1)-th clear bit *)
}

let length t = t.len

let ones t = t.ones

let zeros t = t.len - t.ones

let raw_bytes t = t.data

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec.get";
  Char.code (Bytes.unsafe_get t.data (i lsr 3)) lsr (i land 7) land 1 = 1

let[@inline] word data w = Bytes.get_int64_le data (w lsl 3)

(* Both rank directories carry one entry past the last word, so that
   [rank1 t len] needs no special case when [len] is a multiple of 64.
   The select samples come from the same pass. *)
let build_directories len data =
  let nwords = (len + bits_per_block - 1) / bits_per_block in
  let super_ranks = Array.make ((nwords / blocks_per_super) + 1) 0 in
  let block_ranks = Array.make (nwords + 1) 0 in
  let counts = Array.make nwords 0 in
  let total = ref 0 in
  let since_super = ref 0 in
  for w = 0 to nwords do
    if w land (blocks_per_super - 1) = 0 then begin
      super_ranks.(w / blocks_per_super) <- !total;
      since_super := 0
    end;
    block_ranks.(w) <- !since_super;
    if w < nwords then begin
      let c = popcount64 (word data w) in
      counts.(w) <- c;
      total := !total + c;
      since_super := !since_super + c
    end
  done;
  (* [count w] is the number of sought bits in word [w] *)
  let samples total count =
    let s = Array.make ((total + select_sample - 1) / select_sample) 0 in
    let seen = ref 0 and j = ref 0 in
    for w = 0 to nwords - 1 do
      seen := !seen + count w;
      while !j < Array.length s && (!j * select_sample) + 1 <= !seen do
        s.(!j) <- w;
        incr j
      done
    done;
    s
  in
  let sel1 = samples !total (fun w -> counts.(w)) in
  let sel0 =
    samples (len - !total) (fun w -> min bits_per_block (len - (w * bits_per_block)) - counts.(w))
  in
  { len; data; super_ranks; block_ranks; ones = !total; sel1; sel0 }

let padded_size len = 8 * ((len + bits_per_block - 1) / bits_per_block)

(* Wrap a zero-padded word buffer whose first [(len+7)/8] bytes hold the
   bits; clears any bits past [len] in the last byte. *)
let of_padded ~len data =
  (if len land 7 <> 0 then
     let last = len lsr 3 in
     Bytes.set data last
       (Char.chr (Char.code (Bytes.get data last) land ((1 lsl (len land 7)) - 1))));
  build_directories len data

let of_bytes ~len data =
  if len < 0 || Bytes.length data <> (len + 7) / 8 then invalid_arg "Bitvec.of_bytes";
  let padded = Bytes.make (padded_size len) '\000' in
  Bytes.blit data 0 padded 0 (Bytes.length data);
  of_padded ~len padded

let init len f =
  let data = Bytes.make (padded_size len) '\000' in
  for i = 0 to len - 1 do
    if f i then
      Bytes.set data (i lsr 3)
        (Char.chr (Char.code (Bytes.get data (i lsr 3)) lor (1 lsl (i land 7))))
  done;
  of_padded ~len data

let rank1 t i =
  if i < 0 || i > t.len then invalid_arg "Bitvec.rank1";
  let w = i lsr 6 in
  let r = Array.unsafe_get t.super_ranks (w lsr 3) + Array.unsafe_get t.block_ranks w in
  let k = i land 63 in
  if k = 0 then r
  else r + popcount64 (Int64.logand (word t.data w) (Int64.sub (Int64.shift_left 1L k) 1L))

let rank0 t i = i - rank1 t i

(* [rank1 t i * 2 + bit i], from one word read: the wavelet tree's
   per-level step needs both. Requires [0 <= i < len]. *)
let rank1_get t i =
  let w = i lsr 6 in
  let r = Array.unsafe_get t.super_ranks (w lsr 3) + Array.unsafe_get t.block_ranks w in
  let x = word t.data w in
  let k = i land 63 in
  let bit = Int64.to_int (Int64.shift_right_logical x k) land 1 in
  let below = if k = 0 then 0 else popcount64 (Int64.logand x (Int64.sub (Int64.shift_left 1L k) 1L)) in
  ((r + below) lsl 1) lor bit

(* The word holding the [k]-th set bit (clear bit when [zeros]) and how
   many such bits precede that word: the select samples bound a binary
   search over the word directory. *)
let select_block t k ~zeros =
  let before w =
    let r = Array.unsafe_get t.super_ranks (w lsr 3) + Array.unsafe_get t.block_ranks w in
    if zeros then (w * bits_per_block) - r else r
  in
  let samples = if zeros then t.sel0 else t.sel1 in
  let j = (k - 1) / select_sample in
  let lo = ref samples.(j) in
  let hi =
    ref
      (if j + 1 < Array.length samples then samples.(j + 1)
       else ((t.len + bits_per_block - 1) / bits_per_block) - 1)
  in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if before mid < k then lo := mid else hi := mid - 1
  done;
  (!lo, before !lo)

(* Finish a select inside word [block]: skip whole bytes by popcount,
   then one select-in-byte lookup. [flip] is 0 to look for set bits and
   255 for clear ones. *)
let select_in_word t ~block ~need ~flip =
  let need = ref need in
  let byte = ref (block * 8) in
  let c = ref (Char.code (Bytes.unsafe_get t.data !byte) lxor flip) in
  while popcount8.(!c) < !need do
    need := !need - popcount8.(!c);
    incr byte;
    c := Char.code (Bytes.unsafe_get t.data !byte) lxor flip
  done;
  (!byte lsl 3) lor select_in_byte.((!c * 8) + !need - 1)

(* Position of the [k]-th set bit (1-based). *)
let select1 t k =
  if k < 1 || k > t.ones then invalid_arg "Bitvec.select1";
  let block, before = select_block t k ~zeros:false in
  select_in_word t ~block ~need:(k - before) ~flip:0

(* Position of the [k]-th clear bit (1-based). Padding bits past [len]
   read as zero but are never reached: k is bounded by {!zeros}. *)
let select0 t k =
  if k < 1 || k > zeros t then invalid_arg "Bitvec.select0";
  let block, before = select_block t k ~zeros:true in
  select_in_word t ~block ~need:(k - before) ~flip:255

let data_bytes t = (t.len + 7) / 8

(* The compact footprint of the rank directory as an on-storage design
   would lay it out: 4 bytes per superblock cumulative count, 2 bytes
   per in-superblock block count. The in-memory arrays are wider (OCaml
   ints) but are rebuilt from the raw bits at load time, so this is what
   the occupancy experiment should charge. *)
let overhead_bytes t =
  let nsupers = (t.len + bits_per_super - 1) / bits_per_super in
  let nblocks = (t.len + bits_per_block - 1) / bits_per_block in
  (4 * nsupers) + (2 * nblocks)

let serialize buf t =
  Compress.Rle.add_varint buf t.len;
  Buffer.add_subbytes buf t.data 0 (data_bytes t)

(* A varint length field that must be non-negative and describe at most
   [limit]; a truncated varint or an out-of-range value is corruption. *)
let read_length ~what ~limit s pos =
  match Compress.Rle.read_varint s pos with
  | exception Invalid_argument _ -> failwith (what ^ ": truncated")
  | v, _ when v < 0 || v > limit -> failwith (what ^ ": bad length")
  | r -> r

(* Copy [len] bits starting at byte [pos] of [s] into a padded vector. *)
let of_string_bits ~what ~len s pos =
  let nbytes = (len + 7) / 8 in
  if pos + nbytes > String.length s then failwith (what ^ ": truncated");
  let data = Bytes.make (padded_size len) '\000' in
  Bytes.blit_string s pos data 0 nbytes;
  (of_padded ~len data, pos + nbytes)

let deserialize s pos =
  let what = "Bitvec.deserialize" in
  if pos < 0 || pos > String.length s then failwith (what ^ ": truncated");
  let len, pos = read_length ~what ~limit:(8 * (String.length s - pos)) s pos in
  of_string_bits ~what ~len s pos

(* ------------------------------------------------------------------ *)
(* Wavelet tree over small integer codes                               *)
(* ------------------------------------------------------------------ *)

module Wavelet = struct
  type bv = t

  (* Node directory: one int array per level, [node_fields] ints per
     non-empty wavelet node (interval start, rank1 of the level at that
     start, zero count, index of the left and right child node in the
     next level's directory, -1 for an empty child). *)
  let node_fields = 5

  type t = {
    n : int;
    width : int;  (* bits per code, >= 1 *)
    levels : bv array;  (* one bitvector per bit, MSB level first *)
    nodes : int array array;  (* per level, the node directory *)
  }

  let length w = w.n

  let width w = w.width

  let width_for max_code =
    let rec go w = if max_code lsr w = 0 then w else go (w + 1) in
    max 1 (go 0)

  (* Rebuild the node directory from the level bitvectors: level 0 has
     the single node [0, n); a node [s, e) with z zeros has children
     [s, s+z) and [s+z, e) in the next level. Node counts are bounded by
     the number of distinct code prefixes. *)
  let build_nodes n (levels : bv array) =
    let width = Array.length levels in
    let nodes = Array.make width [||] in
    (* intervals of the current level as (start, size) pairs *)
    let cur = ref (if n > 0 then [ (0, n) ] else []) in
    for level = 0 to width - 1 do
      let bv = levels.(level) in
      let dir = Array.make (node_fields * List.length !cur) 0 in
      let next = ref [] and next_count = ref 0 in
      let child size s =
        if size = 0 then -1
        else begin
          next := (s, size) :: !next;
          incr next_count;
          !next_count - 1
        end
      in
      List.iteri
        (fun k (s, size) ->
          let r = rank1 bv s in
          let z = size - (rank1 bv (s + size) - r) in
          let b = node_fields * k in
          dir.(b) <- s;
          dir.(b + 1) <- r;
          dir.(b + 2) <- z;
          dir.(b + 3) <- child z s;
          dir.(b + 4) <- child (size - z) (s + z))
        !cur;
      nodes.(level) <- dir;
      cur := List.rev !next
    done;
    nodes

  let make ~n ~width levels = { n; width; levels; nodes = build_nodes n levels }

  (* Pointerless, levelwise layout (Claude & Navarro): at each level the
     codes are stably partitioned by the current bit within each node's
     interval, so a node's children occupy adjacent sub-intervals of the
     next level. *)
  let build ~width (codes : int array) : t =
    if width < 1 then invalid_arg "Wavelet.build";
    let n = Array.length codes in
    Array.iter
      (fun c -> if c < 0 || c lsr width <> 0 then invalid_arg "Wavelet.build: code out of range")
      codes;
    let levels = Array.make width (init 0 (fun _ -> false)) in
    (* segments: the node intervals of the current level, left to right *)
    let segments = ref [ codes ] in
    for level = 0 to width - 1 do
      let shift = width - 1 - level in
      let data = Bytes.make (padded_size n) '\000' in
      let pos = ref 0 in
      let next_segments = ref [] in
      List.iter
        (fun (seg : int array) ->
          let z = ref 0 in
          Array.iter
            (fun c ->
              if c lsr shift land 1 = 1 then
                Bytes.set data (!pos lsr 3)
                  (Char.chr (Char.code (Bytes.get data (!pos lsr 3)) lor (1 lsl (!pos land 7))))
              else incr z;
              incr pos)
            seg;
          if level < width - 1 then begin
            let zeros = Array.make !z 0 and onez = Array.make (Array.length seg - !z) 0 in
            let zi = ref 0 and oi = ref 0 in
            Array.iter
              (fun c ->
                if c lsr shift land 1 = 1 then begin
                  onez.(!oi) <- c;
                  incr oi
                end
                else begin
                  zeros.(!zi) <- c;
                  incr zi
                end)
              seg;
            next_segments := onez :: zeros :: !next_segments
          end)
        !segments;
      levels.(level) <- of_padded ~len:n data;
      segments := List.rev !next_segments
    done;
    make ~n ~width levels

  (* One rank (with the bit) per level: the node directory supplies the
     interval start, its rank and the child to descend into. *)
  let access w i =
    if i < 0 || i >= w.n then invalid_arg "Wavelet.access";
    let code = ref 0 and node = ref 0 and off = ref i in
    for level = 0 to w.width - 1 do
      let dir = Array.unsafe_get w.nodes level in
      let b = node_fields * !node in
      let s = dir.(b) in
      let rg = rank1_get (Array.unsafe_get w.levels level) (s + !off) in
      let ones_before = (rg lsr 1) - dir.(b + 1) in
      if rg land 1 = 1 then begin
        code := (!code lsl 1) lor 1;
        off := ones_before;
        node := dir.(b + 4)
      end
      else begin
        code := !code lsl 1;
        off := !off - ones_before;
        node := dir.(b + 3)
      end
    done;
    !code

  (* Occurrences of [code] in the prefix [0, i). *)
  let rank w ~code i =
    if i < 0 || i > w.n then invalid_arg "Wavelet.rank";
    let node = ref 0 and off = ref i and level = ref 0 in
    while !off > 0 && !level < w.width do
      let dir = w.nodes.(!level) in
      let b = node_fields * !node in
      let ones_before = rank1 w.levels.(!level) (dir.(b) + !off) - dir.(b + 1) in
      if code lsr (w.width - 1 - !level) land 1 = 1 then begin
        off := ones_before;
        node := dir.(b + 4)
      end
      else begin
        off := !off - ones_before;
        node := dir.(b + 3)
      end;
      incr level
    done;
    !off

  (* Position of the [k]-th occurrence of [code] (1-based), if any. *)
  let select w ~code k =
    if k < 1 then invalid_arg "Wavelet.select";
    (* descend to the leaf interval, remembering the node of each level *)
    let path = Array.make w.width 0 in
    let node = ref (if w.n > 0 then 0 else -1) and size = ref w.n and level = ref 0 in
    while !node >= 0 && !level < w.width do
      let dir = w.nodes.(!level) in
      let b = node_fields * !node in
      path.(!level) <- !node;
      let z = dir.(b + 2) in
      if code lsr (w.width - 1 - !level) land 1 = 1 then begin
        size := !size - z;
        node := dir.(b + 4)
      end
      else begin
        size := z;
        node := dir.(b + 3)
      end;
      incr level
    done;
    if !level < w.width || k > !size then None
    else begin
      (* walk back up, converting an in-interval offset to the parent *)
      let off = ref (k - 1) in
      for level = w.width - 1 downto 0 do
        let bv = w.levels.(level) in
        let b = node_fields * path.(level) in
        let s = w.nodes.(level).(b) and r = w.nodes.(level).(b + 1) in
        let pos =
          if code lsr (w.width - 1 - level) land 1 = 1 then select1 bv (r + !off + 1)
          else select0 bv (s - r + !off + 1)
        in
        off := pos - s
      done;
      Some !off
    end

  (* On-storage footprint: level bitvectors store n*width raw bits; the
     rank and node directories are rebuilt at load. *)
  let data_bytes w = Array.fold_left (fun acc bv -> acc + data_bytes bv) 0 w.levels

  let overhead_bytes w = Array.fold_left (fun acc bv -> acc + overhead_bytes bv) 0 w.levels

  let serialize buf w =
    Compress.Rle.add_varint buf w.n;
    Compress.Rle.add_varint buf w.width;
    Array.iter (fun bv -> Buffer.add_subbytes buf bv.data 0 ((w.n + 7) / 8)) w.levels

  let deserialize s pos =
    let what = "Wavelet.deserialize" in
    if pos < 0 || pos > String.length s then failwith (what ^ ": truncated");
    let n, pos = read_length ~what ~limit:(8 * (String.length s - pos)) s pos in
    let width, pos = read_length ~what ~limit:62 s pos in
    if width < 1 then failwith (what ^ ": bad width");
    let pos = ref pos in
    let levels =
      Array.init width (fun _ ->
          let bv, p = of_string_bits ~what ~len:n s !pos in
          pos := p;
          bv)
    in
    (make ~n ~width levels, !pos)
end
