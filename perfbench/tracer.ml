type span = {
  id : int;
  parent : int; (* -1 for a root *)
  root : int;
  name : string;
  start : float; (* seconds since the epoch *)
  mutable dur : float; (* seconds *)
  mutable label : string;
  mutable deltas : (string * int) list;
}

let on = ref false
let enabled () = !on
let set_enabled b = on := b
let recorded : span list ref = ref [] (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0
let n_ops = ref 0
let totals : (string, int) Hashtbl.t = Hashtbl.create 32

let open_span name =
  let parent, root =
    match !stack with p :: _ -> (p.id, p.root) | [] -> (-1, !next_id)
  in
  let s = { id = !next_id; parent; root; name; start = Unix.gettimeofday (); dur = 0.0; label = ""; deltas = [] } in
  incr next_id;
  stack := s :: !stack;
  s

let close_span s =
  s.dur <- Unix.gettimeofday () -. s.start;
  stack := List.tl !stack;
  recorded := s :: !recorded

let span name f =
  if not !on then f ()
  else
    let s = open_span name in
    Fun.protect ~finally:(fun () -> close_span s) f

let op ?(counters = fun () -> []) ?(label = "") name f =
  if not !on then f ()
  else begin
    let before = counters () in
    let s = open_span name in
    s.label <- label;
    Fun.protect
      ~finally:(fun () ->
        close_span s;
        incr n_ops;
        s.deltas <-
          List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (counters ());
        List.iter
          (fun (k, d) ->
            Hashtbl.replace totals k (d + Option.value ~default:0 (Hashtbl.find_opt totals k)))
          s.deltas)
      f
  end

let last_ms () = match !recorded with s :: _ -> s.dur *. 1e3 | [] -> 0.0
let ops () = !n_ops
let counter k = Option.value ~default:0 (Hashtbl.find_opt totals k)

let summary () =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.dur +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !recorded;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = s.dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let n, incl, excl = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, incl +. (s.dur *. 1e3), excl +. (self *. 1e3)))
    !recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

let export ~path ~extra =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !recorded in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\"label\":%S%s}}"
        s.name ((s.start -. t0) *. 1e6) (s.dur *. 1e6) s.id s.parent s.root s.label
        (String.concat "" (List.map (fun (k, d) -> Printf.sprintf ",%S:%d" k d) s.deltas)))
    (List.rev !recorded);
  output_string oc "\n]";
  List.iter (fun (k, v) -> Printf.fprintf oc ",\n%S:%s" k v) extra;
  output_string oc "}\n"
