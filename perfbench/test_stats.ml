(* Tests for the benchmark's own arithmetic: the tail-percentile rule,
   the ratio bases, host-speed rescaling and the seeded Zipf stream. *)

let failures = ref 0
let checks = ref 0

let check name cond =
  incr checks;
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  (* median *)
  check "median odd" (Stats.median (ramp 5) = 3.0);
  check "median even" (Stats.median (ramp 4) = 2.5);
  check "median of unsorted input after sorted" (Stats.median (Stats.sorted [| 9.; 1.; 5. |]) = 5.0);
  (* tail: nominal p99 once the sample is large enough *)
  (match Stats.tail (ramp 2000) with
  | Some (v, pct, beyond) ->
    check "tail p99 of 2000 samples" (v = 1980.0 && close pct 99.0 && beyond = 20)
  | None -> check "tail p99 of 2000 samples" false);
  (* exactly 10 beyond at 1000 samples *)
  (match Stats.tail (ramp 1000) with
  | Some (v, pct, beyond) -> check "tail p99 of 1000 samples" (v = 990.0 && close pct 99.0 && beyond = 10)
  | None -> check "tail p99 of 1000 samples" false);
  (* fewer samples: lowered until 10 lie beyond *)
  (match Stats.tail (ramp 100) with
  | Some (v, pct, beyond) -> check "tail of 100 samples keeps 10 beyond" (v = 90.0 && close pct 90.0 && beyond = 10)
  | None -> check "tail of 100 samples keeps 10 beyond" false);
  (match Stats.tail (ramp 11) with
  | Some (v, _, beyond) -> check "tail of 11 samples is the minimum" (v = 1.0 && beyond = 10)
  | None -> check "tail of 11 samples is the minimum" false);
  check "no tail with 10 samples" (Stats.tail (ramp 10) = None);
  check "custom beyond" (match Stats.tail ~beyond:2 (ramp 5) with Some (v, _, 2) -> v = 3.0 | _ -> false);
  (* ratio bases *)
  let r = Stats.hit_ratio ~hits:90 ~misses:8 ~latch_waits:2 in
  check "hit ratio over every fetch" (r.num = 90.0 && r.den = 100.0 && close r.value 0.9);
  let r = Stats.skipped_ratio ~skipped:25 ~decoded:75 in
  check "skipped ratio over all payload bytes" (r.den = 100.0 && close r.value 0.25);
  let r = Stats.per_op 30 ~ops:12 in
  check "per-op rate" (r.num = 30.0 && r.den = 12.0 && close r.value 2.5);
  check "zero base gives 0" ((Stats.per_op 3 ~ops:0).value = 0.0);
  (* host-speed rescaling: a host twice as slow halves back *)
  check "time at reference" (close (Stats.at_reference ~nominal:2.0 ~reference:4.0 10.0) 5.0);
  check "rate at reference" (close (Stats.at_reference ~nominal:4.0 ~reference:2.0 100.0) 200.0);
  (* Zipf key stream *)
  let a = Stats.key_stream ~seed:7 ~n:500 ~s:1.0 ~len:5000 in
  let b = Stats.key_stream ~seed:7 ~n:500 ~s:1.0 ~len:5000 in
  let c = Stats.key_stream ~seed:8 ~n:500 ~s:1.0 ~len:5000 in
  check "same seed, same stream" (a = b);
  check "other seed, other stream" (a <> c);
  check "keys in range" (Array.for_all (fun k -> k >= 0 && k < 500) a);
  let counts = Array.make 500 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) a;
  let sorted_counts = Array.copy counts in
  Array.sort (fun x y -> compare y x) sorted_counts;
  (* rank 1 of Zipf(1) over 500 keys has probability 1/H(500) ~ 0.148 *)
  check "hottest key near 1/H(n)" (sorted_counts.(0) > 600 && sorted_counts.(0) < 880);
  check "skewed: top key far above the median key" (sorted_counts.(0) > 20 * max 1 sorted_counts.(250));
  (* the permutation moves the hottest rank away from id 0 *)
  check "hottest key is not id 0" (counts.(0) < sorted_counts.(0));
  let z = Stats.zipf ~n:1 ~s:1.0 in
  check "single-key zipf" (Stats.draw z (Random.State.make [| 1 |]) = 0);
  Printf.printf "perfbench stats: %d of %d checks passed\n" (!checks - !failures) !checks;
  if !failures > 0 then exit 1
