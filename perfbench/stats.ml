let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let tail ?(beyond = 10) a =
  let n = Array.length a in
  if n <= beyond then None
  else
    (* index of the nominal p99 (nearest rank), capped so that [beyond]
       samples remain above it *)
    let p99 = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
    let i = min p99 (n - 1 - beyond) in
    Some (a.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n, n - 1 - i)

type ratio = { num : float; den : float; value : float }

let ratio ~num ~den = { num; den; value = (if den = 0.0 then 0.0 else num /. den) }

let hit_ratio ~hits ~misses ~latch_waits =
  ratio ~num:(float_of_int hits) ~den:(float_of_int (hits + misses + latch_waits))

let skipped_ratio ~skipped ~decoded =
  ratio ~num:(float_of_int skipped) ~den:(float_of_int (skipped + decoded))

let per_op count ~ops = ratio ~num:(float_of_int count) ~den:(float_of_int ops)

let at_reference ~nominal ~reference t = t *. nominal /. reference

type zipf = float array (* cumulative distribution, last cell 1.0 *)

let zipf ~n ~s =
  if n < 1 then invalid_arg "Stats.zipf: n < 1";
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf = Array.map (fun x -> acc := !acc +. x; !acc /. total) w in
  cdf.(n - 1) <- 1.0;
  cdf

let draw cdf rng =
  let u = Random.State.float rng 1.0 in
  (* first rank whose cumulative share exceeds u *)
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

let key_stream ~seed ~n ~s ~len =
  let rng = Random.State.make [| seed; n; 0x5eed |] in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let z = zipf ~n ~s in
  Array.init len (fun _ -> perm.(draw z rng))
