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

let below_hi (s : string) (hi : string option) =
  match hi with None -> true | Some h -> String.compare s h < 0

let bound_lt (a : string option) (b : string option) =
  (* Compare exclusive upper bounds / lower bounds where None = +inf. *)
  match a, b with
  | None, _ -> false
  | Some _, None -> true
  | Some x, Some y -> String.compare x y < 0

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)
(* Token mining                                                        *)
(* ------------------------------------------------------------------ *)

(** Frequent-substring mining: counts substrings of lengths 2..12 over a
    byte-bounded sample of the values and keeps the [max_tokens] best by
    estimated savings (occurrences x length). *)
let mine_tokens ?(max_tokens = 512) ?(sample_bytes = 1 lsl 20) (values : string list) :
    string list =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 4096 in
  let budget = ref sample_bytes in
  let lengths = [ 2; 3; 4; 5; 6; 8; 10; 12; 16; 20; 24 ] in
  let scan v =
    let n = String.length v in
    budget := !budget - n;
    for i = 0 to n - 2 do
      List.iter
        (fun l ->
          if i + l <= n then begin
            let sub = String.sub v i l in
            match Hashtbl.find_opt counts sub with
            | Some r -> incr r
            | None ->
              if Hashtbl.length counts < 1 lsl 18 then
                Hashtbl.add counts sub (ref 1)
          end)
        lengths
    done
  in
  let rec sample = function
    | [] -> ()
    | v :: rest ->
      if !budget > 0 then begin
        scan v;
        sample rest
      end
  in
  sample values;
  let scored =
    (* savings estimate: each occurrence replaces len bytes by ~1.5 code
       bytes; require enough occurrences to pay for the dictionary entry *)
    Hashtbl.fold
      (fun tok r acc ->
        if !r >= 3 then ((!r * (2 * String.length tok - 3)) - (2 * String.length tok), tok) :: acc
        else acc)
      counts []
  in
  let sorted = List.sort (fun (s, _) (s', _) -> compare s' s) scored in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, tok) :: rest -> tok :: take (n - 1) rest
  in
  take max_tokens sorted

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
      if is_prefix ~prefix:t u then begin
        (match !last_kept with
        | Some k when is_prefix ~prefix:k u -> ()
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

(* Rightmost interval whose [lo] is <= [s]; intervals are disjoint and
   cover all nonempty strings, so this is the containing interval. *)
let find_interval (m : model) (s : string) : int =
  let lo = ref 0 and hi = ref (Array.length m.intervals - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if String.compare m.intervals.(mid).lo s <= 0 then lo := mid else hi := mid - 1
  done;
  let itv = m.intervals.(!lo) in
  if String.compare itv.lo s > 0 || not (below_hi s itv.hi) then
    raise (Corrupt "ALM: no covering interval");
  !lo

let compress (m : model) (value : string) : string =
  let w = Bitio.Writer.create ~size:(String.length value) () in
  let rec go r =
    if String.length r > 0 then begin
      let i = find_interval m r in
      let itv = m.intervals.(i) in
      if not (is_prefix ~prefix:itv.token r) then
        raise (Corrupt "ALM: interval token is not a prefix");
      Bitio.Writer.add_bits w (i + 1) m.width;
      go (String.sub r (String.length itv.token)
            (String.length r - String.length itv.token))
    end
  in
  go value;
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
  let pos = ref 0 in
  let n = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
  pos := 2;
  let tokens =
    List.init n (fun _ ->
        let len = Char.code s.[!pos] in
        let v = String.sub s (!pos + 1) len in
        pos := !pos + 1 + len;
        v)
  in
  of_tokens tokens

let model_size m = String.length (serialize_model m)
