(* Tests for the compression substrate: round-trips for every codec,
   order-preservation and compressed-domain predicates, model
   serialization, and the bzip pipeline stages. *)

open Compress

let sample_values =
  [
    "there"; "their"; "these"; "the"; "theology"; "zebra"; "apple"; "banana";
    "a"; ""; "mango mango mango"; "Shakespeare wrote many plays";
    "creditcard"; "2001-05-04"; "united states"; "gold ring";
  ]

let words =
  [ "the"; "quick"; "brown"; "fox"; "jumps"; "over"; "lazy"; "dog"; "auction";
    "person"; "item"; "europe"; "gold"; "silver"; "bidder"; "increase" ]

let big_text =
  let buf = Buffer.create 4096 in
  let state = ref 12345 in
  for _ = 1 to 800 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    Buffer.add_string buf (List.nth words (!state mod List.length words));
    Buffer.add_char buf ' '
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_string =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40))

let gen_text =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; 'e'; 't'; 'h'; ' '; 'r'; 's' ]) (int_range 0 30))

let gen_pair g = QCheck2.Gen.pair g g

(* ------------------------------------------------------------------ *)
(* Bitio                                                               *)
(* ------------------------------------------------------------------ *)

let test_bitio_roundtrip () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w 0b101 3;
  Bitio.Writer.add_bits w 0xABCD 16;
  Bitio.Writer.add_bit w true;
  let s = Bitio.Writer.contents w in
  let r = Bitio.Reader.of_string s in
  Alcotest.(check int) "3 bits" 0b101 (Bitio.Reader.read_bits r 3);
  Alcotest.(check int) "16 bits" 0xABCD (Bitio.Reader.read_bits r 16);
  Alcotest.(check bool) "1 bit" true (Bitio.Reader.read_bit r)

let test_bitio_width () =
  Alcotest.(check int) "w1" 1 (Bitio.width_for 2);
  Alcotest.(check int) "w2" 2 (Bitio.width_for 3);
  Alcotest.(check int) "w8" 8 (Bitio.width_for 256);
  Alcotest.(check int) "w9" 9 (Bitio.width_for 257)

let prop_bitio =
  QCheck2.Test.make ~name:"bitio roundtrip" ~count:300
    QCheck2.Gen.(small_list (pair (int_bound 0xffff) (int_range 1 16)))
    (fun specs ->
      let specs = List.map (fun (v, w) -> (v land ((1 lsl w) - 1), w)) specs in
      let w = Bitio.Writer.create () in
      List.iter (fun (v, width) -> Bitio.Writer.add_bits w v width) specs;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      List.for_all (fun (v, width) -> Bitio.Reader.read_bits r width = v) specs)

(* ------------------------------------------------------------------ *)
(* Per-codec round-trip + property suites                              *)
(* ------------------------------------------------------------------ *)

let roundtrip_tests name train compress decompress =
  let model = train sample_values in
  let rt v =
    Alcotest.(check string)
      (Printf.sprintf "%s roundtrip %S" name v)
      v
      (decompress model (compress model v))
  in
  Alcotest.test_case (name ^ " roundtrips") `Quick (fun () ->
      List.iter rt sample_values;
      rt "unseen value entirely new";
      rt (String.make 200 'x');
      rt "\x00\x01\xff binary \xfe")

let prop_roundtrip name gen train compress decompress =
  QCheck2.Test.make ~name:(name ^ " roundtrip (random)") ~count:300 gen (fun v ->
      let model = train sample_values in
      decompress model (compress model v) = v)

(* Training happens once per property run to keep tests fast. *)
let huffman_model = lazy (Huffman.train sample_values)
let alm_model = lazy (Alm.train sample_values)
let arith_model = lazy (Arith.train sample_values)
let hu_model = lazy (Hu_tucker.train sample_values)

let prop_cached name gen f = QCheck2.Test.make ~name ~count:400 gen f

(* --- Huffman --- *)

let test_huffman_equality () =
  let m = Lazy.force huffman_model in
  let a = Huffman.compress m "gold ring" in
  let b = Huffman.compress m "gold ring" in
  let c = Huffman.compress m "gold rings" in
  Alcotest.(check bool) "equal" true (Huffman.equal_compressed a b);
  Alcotest.(check bool) "not equal" false (Huffman.equal_compressed a c)

let test_huffman_prefix () =
  let m = Lazy.force huffman_model in
  let v = Huffman.compress m "gold ring" in
  let yes = Huffman.compress_prefix m "gold" in
  let no = Huffman.compress_prefix m "silver" in
  Alcotest.(check bool) "prefix matches" true (Huffman.matches_prefix ~prefix_bits:yes v);
  Alcotest.(check bool) "prefix rejects" false (Huffman.matches_prefix ~prefix_bits:no v)

let prop_huffman_prefix =
  prop_cached "huffman prefix-wildcard agrees with plaintext" (gen_pair gen_text)
    (fun (v, p) ->
      let m = Lazy.force huffman_model in
      let compressed = Huffman.compress m v in
      let prefix_bits = Huffman.compress_prefix m p in
      let plain =
        String.length p <= String.length v && String.sub v 0 (String.length p) = p
      in
      Huffman.matches_prefix ~prefix_bits compressed = plain)

let test_huffman_model_serial () =
  let m = Lazy.force huffman_model in
  let m' = Huffman.deserialize_model (Huffman.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v (Huffman.decompress m' (Huffman.compress m v)))
    sample_values

let test_huffman_compresses () =
  let m = Huffman.train [ big_text ] in
  let c = Huffman.compress m big_text in
  Alcotest.(check bool) "smaller than input" true
    (String.length c < String.length big_text)

(* ------------------------------------------------------------------ *)
(* ALM reference: the Hashtbl miner and the suffix-copying encoder,     *)
(* copied verbatim from the first implementation                       *)
(* ------------------------------------------------------------------ *)

(* The library's miner and encoder must choose the same tokens and emit
   the same codes as these, or every image changes. *)
module Alm_reference = struct
  exception Corrupt of string

  type interval = {
    lo : string;           (* inclusive lower bound *)
    hi : string option;    (* exclusive upper bound; None = +infinity *)
    token : string;        (* prefix stripped/emitted for this interval *)
  }

  type model = {
    intervals : interval array; (* sorted by [lo]; code of interval i is i+1 *)
    width : int;                (* bits per code; code 0 is padding *)
  }

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
end

(* --- ALM --- *)

let test_alm_fig2 () =
  (* The paper's Fig. 2 scenario: "the" must receive several codes around
     the longer token "there", and order must be preserved. *)
  let m = Alm.of_tokens [ "the"; "there"; "ir"; "se" ] in
  let enc = Alm.compress m in
  let check_lt a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s < %s compressed" a b)
      true
      (Alm.compare_compressed (enc a) (enc b) < 0)
  in
  check_lt "their" "there";
  check_lt "there" "these";
  check_lt "the" "their";
  check_lt "the" "there";
  List.iter
    (fun v -> Alcotest.(check string) "fig2 roundtrip" v (Alm.decompress m (enc v)))
    [ "their"; "there"; "these"; "the"; "th"; "t"; "" ]

let prop_alm_order =
  prop_cached "alm order preservation" (gen_pair gen_text) (fun (a, b) ->
      let m = Lazy.force alm_model in
      let ca = Alm.compress m a and cb = Alm.compress m b in
      compare (Alm.compare_compressed ca cb) 0 = compare (String.compare a b) 0)

let prop_alm_order_binary =
  prop_cached "alm order preservation (binary)" (gen_pair gen_string) (fun (a, b) ->
      let m = Lazy.force alm_model in
      let ca = Alm.compress m a and cb = Alm.compress m b in
      compare (Alm.compare_compressed ca cb) 0 = compare (String.compare a b) 0)

let test_alm_prefix_range () =
  let m = Lazy.force alm_model in
  let (lo, hi) = Alm.prefix_range m "the" in
  let inside = Alm.compress m "theology" in
  let outside = Alm.compress m "tha" in
  let matches c =
    Alm.compare_compressed lo c <= 0
    && match hi with None -> true | Some h -> Alm.compare_compressed c h < 0
  in
  Alcotest.(check bool) "inside" true (matches inside);
  Alcotest.(check bool) "outside" false (matches outside)

let test_alm_model_serial () =
  let m = Lazy.force alm_model in
  let m' = Alm.deserialize_model (Alm.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v (Alm.decompress m' (Alm.compress m v)))
    sample_values

let test_alm_compresses () =
  let m = Alm.train [ big_text ] in
  let c = Alm.compress m big_text in
  Alcotest.(check bool) "smaller than input" true
    (String.length c < String.length big_text)

(* Seeded value lists for the miner differential. *)
let random_value st ~alphabet len =
  String.init len (fun _ -> alphabet.[Random.State.int st (String.length alphabet)])

let random_values st ~alphabet ~count ~max_len =
  List.init count (fun _ -> random_value st ~alphabet (Random.State.int st (max_len + 1)))

(* [f ()] with telemetry on; returns its result and how far the
   [codec.alm.candidates] counter moved. *)
let with_candidates f =
  Xquec_obs.with_enabled (fun () ->
      let before = Xquec_obs.Metrics.counter_value "codec.alm.candidates" in
      let r = f () in
      (r, Xquec_obs.Metrics.counter_value "codec.alm.candidates" - before))

let check_mined ?sample_bytes ~max_tokens label values =
  let expected =
    List.sort_uniq String.compare
      (Alm_reference.mine_tokens ~max_tokens ?sample_bytes values)
  in
  let got = Alm.model_tokens (Alm.train ~max_tokens ?sample_bytes values) in
  Alcotest.(check (list string))
    (Printf.sprintf "%s, max_tokens %d" label max_tokens)
    expected got

let test_alm_miner_matches_reference () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      (* 2^18 distinct slices are reached about 30 KB into the long value;
         the values after it only count slices already admitted *)
      let long = random_value st ~alphabet:"abcdefghijklmnop" 60_000 in
      let before = random_values st ~alphabet:"abcdefghijklmnop" ~count:50 ~max_len:40 in
      let capped = before @ [ long ] @ before in
      let (_, counted) = with_candidates (fun () -> Alm.train ~max_tokens:8 capped) in
      Alcotest.(check int) "the cap is reached" (1 lsl 18) counted;
      (* few words, so many candidates share a score at the cutoff *)
      let words = [| "gold"; "ring"; "silver"; "the"; "of"; "band" |] in
      let tied =
        List.init 3000 (fun _ ->
            String.concat " "
              (List.init (1 + Random.State.int st 3) (fun _ ->
                   words.(Random.State.int st (Array.length words)))))
      in
      (* 8000 distinct 2-byte values, each 3 times in seeded order: every
         candidate has the same score, about two share each of the 4096
         buckets, and the cutoff splits a bucket *)
      let all_tied =
        let pair i =
          let c = i * 7919 land 0xffff in
          String.init 2 (fun k -> Char.chr ((c lsr (8 * k)) land 0xff))
        in
        List.init 24_000 (fun i -> (Random.State.bits st, pair (i / 3)))
        |> List.sort compare |> List.map snd
      in
      let binary =
        [ ""; "\x00"; "\xff"; "a" ]
        @ random_values st ~alphabet:"\x00\xff\x01\xfea" ~count:400 ~max_len:30
      in
      List.iter
        (fun max_tokens ->
          check_mined ~max_tokens (Printf.sprintf "cap reached, seed %d" seed) capped;
          check_mined ~max_tokens (Printf.sprintf "score ties, seed %d" seed) tied;
          check_mined ~max_tokens (Printf.sprintf "all tied, seed %d" seed) all_tied;
          check_mined ~max_tokens (Printf.sprintf "binary bytes, seed %d" seed) binary;
          List.iter
            (fun sample_bytes ->
              check_mined ~sample_bytes ~max_tokens
                (Printf.sprintf "budget %d runs out mid-list, seed %d" sample_bytes seed)
                tied)
            (* the last: the budget reaches exactly 0 after 100 values *)
            [ 1; 700; 5_000;
              List.fold_left (fun acc v -> acc + String.length v) 0
                (List.filteri (fun i _ -> i < 100) tied) ])
        [ 8; 1024 ])
    [ 1; 2 ]

let test_alm_compress_matches_reference () =
  let st = Random.State.make [| 17 |] in
  let binary = random_values st ~alphabet:"\x00\xff\x01\xfeab" ~count:300 ~max_len:30 in
  List.iter
    (fun (label, m) ->
      let reference = Alm_reference.of_tokens (Alm.model_tokens m) in
      List.iter
        (fun alphabet ->
          List.iter
            (fun v ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %S" label v)
                (Alm_reference.compress reference v) (Alm.compress m v))
            (random_values st ~alphabet ~count:300 ~max_len:60))
        [ "thereis abc"; "\x00\xff\x01the"; String.init 256 Char.chr ])
    [
      ("fig. 2 tokens", Alm.of_tokens [ "the"; "there"; "ir"; "se" ]);
      ("sample values", Lazy.force alm_model);
      ("big text", Alm.train [ big_text ]);
      ("binary values", Alm.train binary);
    ]

let test_alm_truncated_models () =
  List.iter
    (fun (label, body) ->
      match Alm.deserialize_model body with
      | _ -> Alcotest.failf "%s: loaded" label
      | exception Failure m -> Alcotest.(check string) label "alm: truncated model" m
      | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e))
    [
      ("empty body", "");
      ("1-byte body", "\x00");
      ("token count beyond the tokens", "\x00\x02\x02ab");
      ("token length past the end", "\x00\x01\x05ab");
    ]

(* --- Arithmetic --- *)

let prop_arith_order =
  prop_cached "arith order preservation" (gen_pair gen_text) (fun (a, b) ->
      let m = Lazy.force arith_model in
      let ca = Arith.compress m a and cb = Arith.compress m b in
      compare (Arith.compare_compressed ca cb) 0 = compare (String.compare a b) 0)

let test_arith_model_serial () =
  let m = Lazy.force arith_model in
  let m' = Arith.deserialize_model (Arith.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v (Arith.decompress m' (Arith.compress m' v)))
    sample_values

(* --- Hu-Tucker --- *)

let prop_hu_order =
  prop_cached "hu-tucker order preservation" (gen_pair gen_text) (fun (a, b) ->
      let m = Lazy.force hu_model in
      let ca = Hu_tucker.compress m a and cb = Hu_tucker.compress m b in
      compare (Hu_tucker.compare_compressed ca cb) 0 = compare (String.compare a b) 0)

let test_hu_optimality_sanity () =
  (* Hu-Tucker is optimal among alphabetic codes; on a heavily skewed
     distribution it must beat the fixed-width 9-bit encoding. *)
  let values = List.init 200 (fun _ -> "aaaaaaaaab") in
  let m = Hu_tucker.train values in
  let c = Hu_tucker.compress m "aaaaaaaaab" in
  Alcotest.(check bool) "beats fixed width" true (String.length c < 10)

let test_hu_model_serial () =
  let m = Lazy.force hu_model in
  let m' = Hu_tucker.deserialize_model (Hu_tucker.serialize_model m) in
  List.iter
    (fun v ->
      Alcotest.(check string) "serial roundtrip" v
        (Hu_tucker.decompress m' (Hu_tucker.compress m v)))
    sample_values

(* --- BWT / MTF / RLE / Bzip / LZSS --- *)

let prop_bwt =
  QCheck2.Test.make ~name:"bwt roundtrip" ~count:300 gen_string (fun s ->
      Bwt.inverse (Bwt.transform s) = s)

let prop_mtf =
  QCheck2.Test.make ~name:"mtf roundtrip" ~count:300 gen_string (fun s ->
      Mtf.decode (Mtf.encode s) = s)

let prop_rle =
  QCheck2.Test.make ~name:"rle roundtrip" ~count:300
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 3)) (int_range 0 80))
    (fun s -> Rle.decode (Rle.encode s) = s)

let prop_bzip =
  QCheck2.Test.make ~name:"bzip roundtrip" ~count:100 gen_string (fun s ->
      Bzip.decompress (Bzip.compress s) = s)

let test_bzip_big () =
  Alcotest.(check string) "big text" big_text (Bzip.decompress (Bzip.compress big_text));
  let c = Bzip.compress big_text in
  Alcotest.(check bool) "compresses repetitive text" true
    (String.length c < String.length big_text / 2)

let test_bzip_multiblock () =
  let data = String.concat "" (List.init 80 (fun i -> big_text ^ string_of_int i)) in
  Alcotest.(check bool) "spans blocks" true (String.length data > 1 lsl 18);
  Alcotest.(check string) "multiblock roundtrip" data (Bzip.decompress (Bzip.compress data))

let prop_lzss =
  QCheck2.Test.make ~name:"lzss roundtrip" ~count:200 gen_string (fun s ->
      Lzss.decompress (Lzss.compress s) = s)

let test_lzss_big () =
  Alcotest.(check string) "big text" big_text (Lzss.decompress (Lzss.compress big_text));
  let c = Lzss.compress big_text in
  Alcotest.(check bool) "compresses repetitive text" true
    (String.length c < String.length big_text)

(* --- Numeric --- *)

let test_numeric_int () =
  let m = Ipack.train [ "0"; "5"; "123"; "99999" ] in
  List.iter
    (fun v -> Alcotest.(check string) "int roundtrip" v (Ipack.decompress m (Ipack.compress m v)))
    [ "0"; "5"; "123"; "99999"; "1000000" ];
  let lt a b =
    Ipack.compare_compressed (Ipack.compress m a) (Ipack.compress m b) < 0
  in
  Alcotest.(check bool) "9 < 10 numerically" true (lt "9" "10");
  Alcotest.(check bool) "100 > 99" true (lt "99" "100")

let test_numeric_decimal () =
  let m = Ipack.train [ "0.00"; "58.43"; "1.99" ] in
  List.iter
    (fun v ->
      Alcotest.(check string) "decimal roundtrip" v (Ipack.decompress m (Ipack.compress m v)))
    [ "0.00"; "58.43"; "1.99"; "40.00"; "12345.67" ];
  let lt a b =
    Ipack.compare_compressed (Ipack.compress m a) (Ipack.compress m b) < 0
  in
  Alcotest.(check bool) "9.50 < 10.20" true (lt "9.50" "10.20")

let test_numeric_rejects_text () =
  match Ipack.train [ "12"; "gold" ] with
  | exception Ipack.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let prop_numeric_order =
  QCheck2.Test.make ~name:"numeric order = numeric comparison" ~count:300
    QCheck2.Gen.(pair (int_bound 100000) (int_bound 100000))
    (fun (a, b) ->
      let m = Ipack.train [ "1" ] in
      let ca = Ipack.compress m (string_of_int a)
      and cb = Ipack.compress m (string_of_int b) in
      compare (Ipack.compare_compressed ca cb) 0 = compare a b)

(* --- Codec layer --- *)

let test_codec_dispatch () =
  List.iter
    (fun alg ->
      match Codec.train alg sample_values with
      | exception Codec.Unsupported _ ->
        Alcotest.(check string) "only numeric may reject" "numeric"
          (Codec.algorithm_name alg)
      | model ->
        Alcotest.(check string) "name roundtrip" (Codec.algorithm_name alg)
          (Codec.algorithm_name (Codec.algorithm_of_name (Codec.algorithm_name alg)));
        List.iter
          (fun v ->
            Alcotest.(check string)
              (Codec.algorithm_name alg ^ " codec roundtrip")
              v
              (Codec.decompress model (Codec.compress model v)))
          sample_values)
    Codec.all_algorithms

let test_codec_properties () =
  let p = Codec.properties Codec.Alm_alg in
  Alcotest.(check bool) "alm ineq" true p.Codec.ineq;
  Alcotest.(check bool) "alm wild" false p.Codec.wild;
  let p = Codec.properties Codec.Huffman_alg in
  Alcotest.(check bool) "huffman ineq" false p.Codec.ineq;
  Alcotest.(check bool) "huffman wild" true p.Codec.wild;
  Alcotest.(check bool) "bzip nothing" false (Codec.supports Codec.Bzip_alg `Eq);
  Alcotest.(check bool) "alm cheaper than huffman" true
    (Codec.decompression_cost Codec.Alm_alg < Codec.decompression_cost Codec.Huffman_alg)

let suites =
  [
    ( "bitio",
      [
        Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip;
        Alcotest.test_case "width_for" `Quick test_bitio_width;
        QCheck_alcotest.to_alcotest prop_bitio;
      ] );
    ( "huffman",
      [
        roundtrip_tests "huffman" Huffman.train Huffman.compress Huffman.decompress;
        Alcotest.test_case "equality in compressed domain" `Quick test_huffman_equality;
        Alcotest.test_case "prefix wildcard" `Quick test_huffman_prefix;
        Alcotest.test_case "model serialization" `Quick test_huffman_model_serial;
        Alcotest.test_case "actually compresses" `Quick test_huffman_compresses;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "huffman" gen_string Huffman.train Huffman.compress
             Huffman.decompress);
        QCheck_alcotest.to_alcotest prop_huffman_prefix;
      ] );
    ( "alm",
      [
        roundtrip_tests "alm" Alm.train Alm.compress Alm.decompress;
        Alcotest.test_case "paper fig. 2 scenario" `Quick test_alm_fig2;
        Alcotest.test_case "prefix range extension" `Quick test_alm_prefix_range;
        Alcotest.test_case "model serialization" `Quick test_alm_model_serial;
        Alcotest.test_case "actually compresses" `Quick test_alm_compresses;
        Alcotest.test_case "miner matches the Hashtbl reference" `Quick
          test_alm_miner_matches_reference;
        Alcotest.test_case "compress matches the suffix-copying reference" `Quick
          test_alm_compress_matches_reference;
        Alcotest.test_case "truncated models raise Failure" `Quick test_alm_truncated_models;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "alm" gen_string Alm.train Alm.compress Alm.decompress);
        QCheck_alcotest.to_alcotest prop_alm_order;
        QCheck_alcotest.to_alcotest prop_alm_order_binary;
      ] );
    ( "arith",
      [
        roundtrip_tests "arith" Arith.train Arith.compress Arith.decompress;
        Alcotest.test_case "model serialization" `Quick test_arith_model_serial;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "arith" gen_string Arith.train Arith.compress Arith.decompress);
        QCheck_alcotest.to_alcotest prop_arith_order;
      ] );
    ( "hu-tucker",
      [
        roundtrip_tests "hu-tucker" Hu_tucker.train Hu_tucker.compress
          Hu_tucker.decompress;
        Alcotest.test_case "optimality sanity" `Quick test_hu_optimality_sanity;
        Alcotest.test_case "model serialization" `Quick test_hu_model_serial;
        QCheck_alcotest.to_alcotest
          (prop_roundtrip "hu-tucker" gen_string Hu_tucker.train Hu_tucker.compress
             Hu_tucker.decompress);
        QCheck_alcotest.to_alcotest prop_hu_order;
      ] );
    ( "bzip-pipeline",
      [
        Alcotest.test_case "bzip big text" `Quick test_bzip_big;
        Alcotest.test_case "bzip multi-block" `Quick test_bzip_multiblock;
        Alcotest.test_case "lzss big text" `Quick test_lzss_big;
        QCheck_alcotest.to_alcotest prop_bwt;
        QCheck_alcotest.to_alcotest prop_mtf;
        QCheck_alcotest.to_alcotest prop_rle;
        QCheck_alcotest.to_alcotest prop_bzip;
        QCheck_alcotest.to_alcotest prop_lzss;
      ] );
    ( "numeric",
      [
        Alcotest.test_case "integers" `Quick test_numeric_int;
        Alcotest.test_case "decimals" `Quick test_numeric_decimal;
        Alcotest.test_case "rejects text" `Quick test_numeric_rejects_text;
        QCheck_alcotest.to_alcotest prop_numeric_order;
      ] );
    ( "codec",
      [
        Alcotest.test_case "dispatch all algorithms" `Quick test_codec_dispatch;
        Alcotest.test_case "properties table" `Quick test_codec_properties;
      ] );
  ]
