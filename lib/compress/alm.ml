(* ALM (Antoshenkov-Lomet-Murray) dictionary-based order-preserving string
   compression, as used by XQueC (EDBT'04, §2.1 and Fig. 2).

   The string space is partitioned into disjoint lexicographic intervals.
   Each interval is associated with a dictionary token that is a prefix of
   every string in the interval, and with a fixed-width integer code;
   codes are assigned in interval order. Encoding a string repeatedly
   locates the interval containing the remaining suffix, emits its code and
   strips the token. Because (a) intervals are code-ordered, (b) stripping
   a shared prefix preserves relative order, and (c) code 0 is reserved for
   padding (so a shorter code sequence always compares below any
   continuation), the byte-string comparison of two compressed values
   coincides with the comparison of the plaintexts — inequality and
   equality predicates run entirely in the compressed domain.

   A token that is a proper prefix of other tokens receives several codes,
   one per gap between the longer tokens' regions: this is exactly the
   paper's Fig. 2, where "the" maps to codes c and e around the code d of
   "there". *)

type interval = {
  lo : string;           (* inclusive lower bound *)
  hi : string option;    (* exclusive upper bound; None = +infinity *)
  token : string;        (* prefix stripped/emitted for this interval *)
}

type model = {
  intervals : interval array; (* sorted by [lo]; code of interval i is i+1 *)
  width : int;                (* bits per code; code 0 is padding *)
}

exception Corrupt of string

(* Smallest string strictly greater than every string with prefix [t]. *)
let next_prefix (t : string) : string option =
  let rec go i =
    if i < 0 then None
    else if t.[i] = '\xff' then go (i - 1)
    else Some (String.sub t 0 i ^ String.make 1 (Char.chr (Char.code t.[i] + 1)))
  in
  go (String.length t - 1)

let rec same_bytes a i b j l =
  l = 0
  || (String.unsafe_get a i = String.unsafe_get b j && same_bytes a (i + 1) b (j + 1) (l - 1))

(* [String.compare a s'] where [s'] is the suffix of [s] from [i], read
   in place; [k] bytes are known equal. *)
let rec compare_from a s i k =
  let la = String.length a and ls = String.length s - i in
  if k = la || k = ls then compare la ls
  else
    let c = Char.compare (String.unsafe_get a k) (String.unsafe_get s (i + k)) in
    if c <> 0 then c else compare_from a s i (k + 1)

(* The suffix of [s] from [i] is below the exclusive upper bound [hi]. *)
let below_hi (s : string) (i : int) (hi : string option) =
  match hi with None -> true | Some h -> compare_from h s i 0 > 0

let bound_lt (a : string option) (b : string option) =
  (* Compare exclusive upper bounds / lower bounds where None = +inf. *)
  match a, b with
  | None, _ -> false
  | Some _, None -> true
  | Some x, Some y -> String.compare x y < 0

(* [prefix] is a prefix of the suffix of [s] from [i]. *)
let is_prefix_at ~prefix s i =
  String.length prefix <= String.length s - i
  && same_bytes prefix 0 s i (String.length prefix)

(* ------------------------------------------------------------------ *)
(* Token mining                                                        *)
(* ------------------------------------------------------------------ *)

(* Candidate token lengths, and the number of distinct candidates one
   mining run counts. *)
let mine_lengths = [| 2; 3; 4; 5; 6; 8; 10; 12; 16; 20; 24 |]
let max_candidates = 1 lsl 18

(* The miner's counting table, sized from the sample and dropped after
   the call: a table kept for reuse stays live between trainings and
   costs more peak memory than it saves. Candidate [c] (ids in
   first-seen order) is the slice of [src.(c)] at offset
   [loc.(c) lsr 5] of length [loc.(c) land 31], seen [count.(c)] times.
   [slots] is an open-addressing index of [2 ^ (63 - shift)] slots over
   the candidates: 0 when empty, else the slice hash's bits from 24 up,
   the slice length in bits 19-23 and [c + 1] below. *)
type table = {
  src : string array;
  loc : int array;
  count : int array;
  slots : int array;
  shift : int;
  mutable counted : int;
}

let id_mask = 0x7ffff
let hash_mask = lnot 0xffffff

(* Count one occurrence of the slice of [v] at [i] of length [l], whose
   hash is [h]. *)
let count_slice t v i l h =
  let key = h land hash_mask lor (l lsl 19) in
  let mask = Array.length t.slots - 1 in
  let s = ref (h lsr t.shift) in
  let searching = ref true in
  while !searching do
    let e = Array.unsafe_get t.slots !s in
    if e = 0 then begin
      searching := false;
      let c = t.counted in
      if c < max_candidates then begin
        t.src.(c) <- v;
        t.loc.(c) <- (i lsl 5) lor l;
        t.count.(c) <- 1;
        Array.unsafe_set t.slots !s (key lor (c + 1));
        t.counted <- c + 1
      end
    end
    else begin
      let c = (e land id_mask) - 1 in
      if e land lnot id_mask = key && same_bytes v i t.src.(c) (t.loc.(c) lsr 5) l then begin
        searching := false;
        t.count.(c) <- t.count.(c) + 1
      end
      else s := (!s + 1) land mask
    end
  done

(* Bucket count of a [Hashtbl.create 4096] after [n] additions: it
   doubles whenever the size exceeds twice the bucket count. *)
let hashtbl_buckets n =
  let rec go b = if n > 2 * b then go (2 * b) else b in
  go 4096

(** Frequent-substring mining: counts the substrings of lengths 2..24
    over a byte-bounded sample of the values and keeps the [max_tokens]
    best by estimated savings (occurrences x length).

    The rule is a contract, since the token set decides every image
    byte. The sample is the values, in order, taken while the byte
    budget is positive (the value that exhausts it is scanned whole).
    Every slice of a listed length at every offset is a candidate; the
    first [max_candidates] distinct candidates, in first-seen order, are
    counted and later ones dropped. Candidates seen at least 3 times are
    ranked by score descending, then by [Hashtbl.hash token land
    (buckets - 1)] descending, then first-seen ascending, where
    [buckets] is {!hashtbl_buckets} of the number counted: the order in
    which a stable sort on score meets the candidates after a fold over
    a [Hashtbl.create 4096] holding them. The result is the set of the
    first [max_tokens], in no particular order. *)
let mine_tokens ?(max_tokens = 512) ?(sample_bytes = 1 lsl 20) (values : string list) :
    string list =
  let rec take acc budget = function
    | v :: rest when budget > 0 -> take (v :: acc) (budget - String.length v) rest
    | _ -> List.rev acc
  in
  let sample = take [] sample_bytes values in
  let sampled = List.fold_left (fun acc v -> acc + String.length v) 0 sample in
  (* distinct candidates are fewer than 11 per sampled byte *)
  let cap = min max_candidates (Array.length mine_lengths * sampled) in
  let rec log2_slots b = if 1 lsl b >= 2 * cap then b else log2_slots (b + 1) in
  let bits = log2_slots 1 in
  let t =
    {
      src = Array.make cap "";
      loc = Array.make cap 0;
      count = Array.make cap 0;
      slots = Array.make (1 lsl bits) 0;
      shift = 63 - bits;
      counted = 0;
    }
  in
  let scan v =
    let n = String.length v in
    for i = 0 to n - 2 do
      (* one multiplicative hash, extended across the lengths *)
      let h = ref 0 and j = ref i and k = ref 0 in
      while !k < Array.length mine_lengths && i + mine_lengths.(!k) <= n do
        let l = mine_lengths.(!k) in
        while !j < i + l do
          h := (!h + Char.code (String.unsafe_get v !j) + 1) * 0x2545F4914F6CDD1D;
          incr j
        done;
        count_slice t v i l !h;
        incr k
      done
    done
  in
  List.iter scan sample;
  let counted = t.counted in
  if Xquec_obs.is_enabled () then begin
    Xquec_obs.Metrics.incr ~by:sampled "codec.alm.sampled_bytes";
    Xquec_obs.Metrics.incr ~by:counted "codec.alm.candidates"
  end;
  let len c = t.loc.(c) land 31 in
  let token c = String.sub t.src.(c) (t.loc.(c) lsr 5) (len c) in
  (* savings estimate: each occurrence replaces len bytes by ~1.5 code
     bytes; require enough occurrences to pay for the dictionary entry *)
  let score c = (t.count.(c) * ((2 * len c) - 3)) - (2 * len c) in
  let kept = ref [] in
  for c = counted - 1 downto 0 do
    if t.count.(c) >= 3 then kept := c :: !kept
  done;
  let kept = !kept in
  if List.compare_length_with kept max_tokens <= 0 then List.map token kept
  else if max_tokens <= 0 then []
  else begin
    let scores = Array.of_list (List.map score kept) in
    Array.sort (fun a b -> compare b a) scores;
    let cutoff = scores.(max_tokens - 1) in
    let above = List.filter (fun c -> score c > cutoff) kept in
    let buckets = hashtbl_buckets counted in
    let ties =
      List.filter (fun c -> score c = cutoff) kept
      |> List.map (fun c ->
             let tok = token c in
             (Hashtbl.hash tok land (buckets - 1), tok))
      |> List.stable_sort (fun (b, _) (b', _) -> compare b' b)
    in
    List.map token above
    @ List.filteri (fun i _ -> i < max_tokens - List.length above) (List.map snd ties)
  end

(* ------------------------------------------------------------------ *)
(* Model construction                                                  *)
(* ------------------------------------------------------------------ *)

let build_intervals (tokens : string list) : interval array =
  (* All 256 single bytes guarantee total coverage of nonempty strings. *)
  let all =
    List.sort_uniq String.compare
      (List.init 256 (fun i -> String.make 1 (Char.chr i)) @ tokens)
  in
  let arr = Array.of_list all in
  let n = Array.length arr in
  let intervals = ref [] in
  for i = 0 to n - 1 do
    let t = arr.(i) in
    (* Minimal extensions of [t]: walk the sorted successors with prefix
       [t], skipping descendants of an already-kept extension. *)
    let exts = ref [] in
    let last_kept = ref None in
    let j = ref (i + 1) in
    let continue = ref true in
    while !continue && !j < n do
      let u = arr.(!j) in
      if is_prefix_at ~prefix:t u 0 then begin
        (match !last_kept with
        | Some k when is_prefix_at ~prefix:k u 0 -> ()
        | Some _ | None ->
          exts := u :: !exts;
          last_kept := Some u);
        incr j
      end
      else continue := false
    done;
    let exts = List.rev !exts in
    (* Gaps of [t, next t) not covered by any extension's prefix range. *)
    let t_hi = next_prefix t in
    let lo = ref (Some t) in
    List.iter
      (fun u ->
        (match !lo with
        | Some lo_s when String.compare lo_s u < 0 ->
          intervals := { lo = lo_s; hi = Some u; token = t } :: !intervals
        | Some _ | None -> ());
        lo := next_prefix u)
      exts;
    (match !lo with
    | Some lo_s when bound_lt (Some lo_s) t_hi ->
      intervals := { lo = lo_s; hi = t_hi; token = t } :: !intervals
    | Some _ | None -> ())
  done;
  let arr = Array.of_list !intervals in
  Array.sort (fun a b -> String.compare a.lo b.lo) arr;
  arr

let of_tokens (tokens : string list) : model =
  let intervals = build_intervals tokens in
  let width = Bitio.width_for (Array.length intervals + 1) in
  { intervals; width }

(** Train on container values: mined frequent substrings + total byte
    coverage. The dictionary budget adapts to the container size so the
    source model never dwarfs the data it compresses. *)
let train ?max_tokens ?sample_bytes (values : string list) : model =
  let max_tokens =
    match max_tokens with
    | Some m -> m
    | None ->
      let total = List.fold_left (fun acc v -> acc + String.length v) 0 values in
      min 1024 (max 8 (total / 96))
  in
  of_tokens (mine_tokens ~max_tokens ?sample_bytes values)

(* ------------------------------------------------------------------ *)
(* Encoding / decoding                                                 *)
(* ------------------------------------------------------------------ *)

(* Rightmost interval whose [lo] is <= the suffix of [s] from [i];
   intervals are disjoint and cover all nonempty strings, so this is the
   containing interval. *)
let find_interval (m : model) (s : string) (i : int) : int =
  let lo = ref 0 and hi = ref (Array.length m.intervals - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if compare_from m.intervals.(mid).lo s i 0 <= 0 then lo := mid else hi := mid - 1
  done;
  let itv = m.intervals.(!lo) in
  if compare_from itv.lo s i 0 > 0 || not (below_hi s i itv.hi) then
    raise (Corrupt "ALM: no covering interval");
  !lo

let compress (m : model) (value : string) : string =
  let n = String.length value in
  let w = Bitio.Writer.create ~size:n () in
  let rec go i =
    if i < n then begin
      let k = find_interval m value i in
      let itv = m.intervals.(k) in
      if not (is_prefix_at ~prefix:itv.token value i) then
        raise (Corrupt "ALM: interval token is not a prefix");
      Bitio.Writer.add_bits w (k + 1) m.width;
      go (i + String.length itv.token)
    end
  in
  go 0;
  Bitio.Writer.contents w

let decompress (m : model) (compressed : string) : string =
  let r = Bitio.Reader.of_string compressed in
  let buf = Buffer.create 16 in
  let rec go () =
    if Bitio.Reader.bits_remaining r >= m.width then begin
      let code = Bitio.Reader.read_bits r m.width in
      if code <> 0 then begin
        if code > Array.length m.intervals then raise (Corrupt "ALM: bad code");
        Buffer.add_string buf m.intervals.(code - 1).token;
        go ()
      end
    end
  in
  go ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Compressed-domain operations                                        *)
(* ------------------------------------------------------------------ *)

(** Order-preserving: compare compressed values directly. *)
let compare_compressed (a : string) (b : string) = String.compare a b

let equal_compressed (a : string) (b : string) = String.equal a b

(** Compressed bounds for a prefix-wildcard [p*]: ALM being
    order-preserving, matching strings are exactly those in
    [compress p, compress (next_prefix p)). This goes beyond the paper's
    wild=false (kept false in the cost model) but is exposed as an
    extension. *)
let prefix_range (m : model) (prefix : string) : string * string option =
  let lo = compress m prefix in
  let hi = Option.map (compress m) (next_prefix prefix) in
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* Model serialization                                                 *)
(* ------------------------------------------------------------------ *)

(* The interval set is a pure function of the token set, so the source
   model on storage is just the mined (multi-byte) tokens; the 256
   single-byte tokens are implicit. *)

let model_tokens (m : model) : string list =
  Array.to_list m.intervals
  |> List.filter_map (fun itv -> if String.length itv.token > 1 then Some itv.token else None)
  |> List.sort_uniq String.compare

let serialize_model (m : model) : string =
  let buf = Buffer.create 1024 in
  let tokens = model_tokens m in
  Buffer.add_uint16_be buf (List.length tokens);
  List.iter
    (fun t ->
      Buffer.add_char buf (Char.chr (String.length t));
      Buffer.add_string buf t)
    tokens;
  Buffer.contents buf

let deserialize_model (s : string) : model =
  let truncated () = failwith "alm: truncated model" in
  let len = String.length s in
  if len < 2 then truncated ();
  let n = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
  let pos = ref 2 in
  let tokens =
    List.init n (fun _ ->
        if !pos >= len then truncated ();
        let l = Char.code s.[!pos] in
        if l > len - !pos - 1 then truncated ();
        let v = String.sub s (!pos + 1) l in
        pos := !pos + 1 + l;
        v)
  in
  of_tokens tokens

let model_size m = String.length (serialize_model m)
