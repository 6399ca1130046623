let nominal_ms = 2.0
let buf = Array.make 2048 0

type tree = Leaf | Node of tree * int * tree

let rec make d k = if d = 0 then Leaf else Node (make (d - 1) (2 * k), k, make (d - 1) ((2 * k) + 1))
let rec sum = function Leaf -> 0 | Node (l, k, r) -> sum l + k + sum r
let tree = make 12 1
let keys = Array.init 1000 (fun i -> string_of_int (i * 7))
let table = Hashtbl.create 1024
let () = Array.iteri (fun i k -> if i mod 2 = 0 then Hashtbl.replace table k i) keys

(* Integer mixing over a 16 KiB array, then a pointer-chasing walk of a
   4095-node tree and string-keyed hash-table probes: the kinds of work
   the engine's hot paths do. The slice allocates nothing, so it never
   collects garbage on the program's behalf, and its data (~150 KB)
   stays in the caches, so the state the program leaves behind barely
   moves it. *)
let slice () =
  let acc = ref 0 in
  for r = 1 to 300 do
    for i = 0 to Array.length buf - 1 do
      let x = (buf.(i) * 1103515245) + 12345 + i + r in
      buf.(i) <- x;
      acc := !acc lxor (x lsr 9)
    done
  done;
  for _ = 1 to 18 do
    acc := !acc + sum tree;
    Array.iter (fun k -> if Hashtbl.mem table k then incr acc) keys
  done;
  ignore (Sys.opaque_identity !acc)

(* (start time, ms) of every slice, newest first *)
let recorded : (float * float) list ref = ref []
let total = ref 0.0

let slices n =
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    slice ();
    let dt = Unix.gettimeofday () -. t0 in
    total := !total +. dt;
    recorded := (t0, dt *. 1e3) :: !recorded
  done

let during f =
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> slices 1)) in
  let every = { Unix.it_interval = 0.1; it_value = 0.1 } in
  ignore (Unix.setitimer Unix.ITIMER_REAL every);
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
      Sys.set_signal Sys.sigalrm previous)

let count () = List.length !recorded
let spent () = !total

let reference ~t0 ~t1 =
  match !recorded with
  | [] -> nominal_ms
  | l ->
    let inside = List.filter (fun (t, _) -> t >= t0 && t <= t1) l in
    let chosen =
      if List.length inside >= 3 then inside
      else
        let dist (t, _) = if t < t0 then t0 -. t else if t > t1 then t -. t1 else 0.0 in
        List.sort (fun a b -> Float.compare (dist a) (dist b)) l |> List.filteri (fun i _ -> i < 3)
    in
    Stats.median (Stats.sorted (Array.of_list (List.map snd chosen)))

let rescale ~t0 ~t1 x = Stats.at_reference ~nominal:nominal_ms ~reference:(reference ~t0 ~t1) x
