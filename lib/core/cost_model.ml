(* Cost model for compression configurations (§3.2).

   A configuration assigns each container to a partition set with a
   compression algorithm; containers in one set share a source model.
   Its cost is a weighted sum of
   - container storage cost: estimated compressed bytes under the set's
     algorithm and shared model,
   - source-model storage cost,
   - decompression cost: for every workload predicate that cannot run in
     the compressed domain under this configuration, the sizes of the
     involved containers weighted by the algorithm's d_c — the three
     cases of §3.2 (different algorithms / different source models /
     unsupported predicate class).

   Storage estimates are measured on bounded samples: the candidate
   algorithm is trained on the merged sample of the set and applied to
   each container's sample. This stands in for the paper's c_s(F) and
   c_a(F) functions — the similarity matrix F is implicit in the sample
   merge (similar containers genuinely compress better together, which
   is exactly what F models). *)

open Storage

type configuration = {
  sets : (int list * Compress.Codec.algorithm) list;
      (** partition of (queried) container ids with the set's algorithm *)
}

type weights = { w_storage : float; w_model : float; w_decompression : float }

let default_weights = { w_storage = 1.0; w_model = 1.0; w_decompression = 0.05 }

type t = {
  repo : Repository.t;
  workload : Workload.t;
  weights : weights;
  samples : (int, string list) Hashtbl.t; (* container id -> sampled values *)
  plain_sizes : (int, int) Hashtbl.t;
  record_counts : (int, int) Hashtbl.t;
  estimate_cache : (string, float * float) Hashtbl.t;
}

(* Samples must be large enough that dictionary-based codecs (ALM) train
   representative models — small/medium containers are measured exactly. *)
let sample_limit = 600
let sample_bytes = 64 * 1024

let sample_container (c : Container.t) : string list =
  let n = Container.length c in
  let take = min n sample_limit in
  let step = max 1 (n / max 1 take) in
  let budget = ref sample_bytes in
  let out = ref [] in
  let i = ref 0 in
  (* blocks are decoded here rather than fetched through the buffer
     pool: a one-off sample must not stay cached after the build *)
  Array.iter
    (fun (b : Container.block) ->
      if !i < b.b_start + b.b_count && !budget > 0 then begin
        let recs = Compress.Codec.decode_block ~count:b.b_count b.b_payload in
        while !i < b.b_start + b.b_count && !budget > 0 do
          let v = Compress.Codec.decompress c.Container.model (fst recs.(!i - b.b_start)) in
          budget := !budget - String.length v;
          out := v :: !out;
          i := !i + step
        done
      end)
    c.Container.blocks;
  List.rev !out

let create ?(weights = default_weights) (repo : Repository.t) (workload : Workload.t) : t =
  let samples = Hashtbl.create 64 in
  let plain_sizes = Hashtbl.create 64 in
  let record_counts = Hashtbl.create 64 in
  Array.iter
    (fun (c : Container.t) ->
      Hashtbl.add samples c.Container.id (sample_container c);
      Hashtbl.add plain_sizes c.Container.id c.Container.plain_bytes;
      Hashtbl.add record_counts c.Container.id (Container.length c))
    repo.Repository.containers;
  { repo; workload; weights; samples; plain_sizes; record_counts;
    estimate_cache = Hashtbl.create 256 }

let set_key (ids : int list) (alg : Compress.Codec.algorithm) =
  Compress.Codec.algorithm_name alg ^ ":"
  ^ String.concat "," (List.map string_of_int (List.sort compare ids))

(** (storage cost, model cost) estimate for one partition set. *)
let estimate_set (t : t) (ids : int list) (alg : Compress.Codec.algorithm) : float * float =
  let key = set_key ids alg in
  match Hashtbl.find_opt t.estimate_cache key with
  | Some r ->
    Xquec_obs.Metrics.incr "cost_model.estimate_cache_hits";
    r
  | None ->
    Xquec_obs.Metrics.incr "cost_model.estimate_cache_misses";
    let result =
      let merged = List.concat_map (fun id -> Hashtbl.find t.samples id) ids in
      match Compress.Codec.train alg merged with
      | exception Compress.Codec.Unsupported _ -> (Float.infinity, Float.infinity)
      | model ->
        let model_cost = float_of_int (Compress.Codec.model_size model) in
        let storage =
          List.fold_left
            (fun acc id ->
              let sample = Hashtbl.find t.samples id in
              let plain =
                List.fold_left (fun a v -> a + String.length v) 0 sample
              in
              let compressed =
                List.fold_left
                  (fun a v -> a + String.length (Compress.Codec.compress model v))
                  0 sample
              in
              let ratio =
                if plain = 0 then 1.0 else float_of_int compressed /. float_of_int plain
              in
              acc +. (ratio *. float_of_int (Hashtbl.find t.plain_sizes id)))
            0.0 ids
        in
        (storage, model_cost)
    in
    Hashtbl.add t.estimate_cache key result;
    result

(* Set (and algorithm) a container belongs to under a configuration. *)
let set_of (config : configuration) (id : int) : (int list * Compress.Codec.algorithm) option =
  List.find_opt (fun (ids, _) -> List.mem id ids) config.sets

let class_supported alg (cls : Workload.pred_class) =
  match cls with
  | Workload.Cls_eq -> Compress.Codec.supports alg `Eq
  | Workload.Cls_ineq -> Compress.Codec.supports alg `Ineq
  | Workload.Cls_wild -> Compress.Codec.supports alg `Wild

(** Decompression cost of one predicate under a configuration: 0 when it
    runs in the compressed domain, otherwise |ct| * d_c summed over the
    containers that must be decompressed (§3.2's three cases). *)
let predicate_cost (t : t) (config : configuration) (p : Workload.predicate) : float =
  let size id = float_of_int (Hashtbl.find t.record_counts id) in
  let dc alg = Compress.Codec.decompression_cost alg in
  let decompress_all ids =
    List.fold_left
      (fun acc id ->
        match set_of config id with
        | Some (_, alg) -> acc +. (size id *. dc alg)
        | None -> acc +. (size id *. dc Compress.Codec.Bzip_alg))
      0.0 ids
  in
  match p.Workload.right with
  | [] -> (
    (* container vs constant: in-domain iff the algorithm supports the
       class (the constant is compressed with the container's model) *)
    let bad =
      List.filter
        (fun id ->
          match set_of config id with
          | Some (_, alg) -> not (class_supported alg p.Workload.cls)
          | None -> true)
        p.Workload.left
    in
    match bad with [] -> 0.0 | ids -> decompress_all ids)
  | right ->
    (* container vs container: all involved containers must share one
       source model under an algorithm supporting the class *)
    let ids = p.Workload.left @ right in
    let sets = List.map (set_of config) ids in
    let in_domain =
      match sets with
      | Some (first_ids, first_alg) :: rest ->
        class_supported first_alg p.Workload.cls
        && List.for_all
             (function
               | Some (ids', _) -> ids' == first_ids || ids' = first_ids
               | None -> false)
             rest
      | _ -> false
    in
    if in_domain then 0.0 else decompress_all ids

(** Total cost of a configuration. *)
let cost (t : t) (config : configuration) : float =
  Xquec_obs.Metrics.incr "cost_model.evaluations";
  let storage, model =
    List.fold_left
      (fun (s, m) (ids, alg) ->
        let (s', m') = estimate_set t ids alg in
        (s +. s', m +. m'))
      (0.0, 0.0) config.sets
  in
  let decompression =
    List.fold_left (fun acc p -> acc +. predicate_cost t config p) 0.0
      t.workload.Workload.predicates
  in
  (t.weights.w_storage *. storage)
  +. (t.weights.w_model *. model)
  +. (t.weights.w_decompression *. decompression)

(* ------------------------------------------------------------------ *)
(* Block-interval join estimation (header-only)                        *)
(* ------------------------------------------------------------------ *)

type block_join_estimate = {
  bj_pairs : (int * int) list;
  bj_probe_left : bool array;
  bj_probe_right : bool array;
  bj_left_probed_bytes : int;
  bj_left_skipped_bytes : int;
  bj_right_probed_bytes : int;
  bj_right_skipped_bytes : int;
  bj_probed_blocks : int;
  bj_skipped_blocks : int;
  bj_skip_fraction : float;
  bj_exact : bool;
}

(* Block bound sequences (h_min and h_max) are non-decreasing, so for
   each right block the overlapping left blocks form a contiguous range
   [lo, hi) whose endpoints are themselves non-decreasing in j — a
   two-pointer sweep enumerates every overlapping pair in
   O(pairs + blocks). Note blocks of one side may overlap each other
   (equal codes spanning a block boundary, or capped bounds), which is
   why the simpler disjoint-interval merge would miss pairs. *)
let block_join_estimate (lh : Container.header array) (rh : Container.header array) :
    block_join_estimate =
  let nl = Array.length lh and nr = Array.length rh in
  let probe_l = Array.make nl false and probe_r = Array.make nr false in
  let pairs = ref [] in
  let lo = ref 0 and hi = ref 0 in
  for j = 0 to nr - 1 do
    let r = rh.(j) in
    while
      !lo < nl && String.compare lh.(!lo).Container.h_max r.Container.h_min < 0
    do
      incr lo
    done;
    if !hi < !lo then hi := !lo;
    while
      !hi < nl && String.compare lh.(!hi).Container.h_min r.Container.h_max <= 0
    do
      incr hi
    done;
    for i = !hi - 1 downto !lo do
      pairs := (i, j) :: !pairs;
      probe_l.(i) <- true;
      probe_r.(j) <- true
    done
  done;
  let tally probe (h : Container.header array) =
    let probed = ref 0 and skipped = ref 0 in
    Array.iteri
      (fun i (hd : Container.header) ->
        let b = hd.Container.h_payload_bytes in
        if probe.(i) then probed := !probed + b else skipped := !skipped + b)
      h;
    (!probed, !skipped)
  in
  let (lp, ls) = tally probe_l lh and (rp, rs) = tally probe_r rh in
  let count probe = Array.fold_left (fun acc p -> if p then acc + 1 else acc) 0 probe in
  let probed_blocks = count probe_l + count probe_r in
  let total_blocks = nl + nr in
  let skipped_blocks = total_blocks - probed_blocks in
  let exact_probed probe (h : Container.header array) =
    let ok = ref true in
    Array.iteri (fun i (hd : Container.header) -> if probe.(i) && not hd.Container.h_exact then ok := false) h;
    !ok
  in
  {
    bj_pairs = !pairs;
    bj_probe_left = probe_l;
    bj_probe_right = probe_r;
    bj_left_probed_bytes = lp;
    bj_left_skipped_bytes = ls;
    bj_right_probed_bytes = rp;
    bj_right_skipped_bytes = rs;
    bj_probed_blocks = probed_blocks;
    bj_skipped_blocks = skipped_blocks;
    bj_skip_fraction =
      (if total_blocks = 0 then 0.0
       else float_of_int skipped_blocks /. float_of_int total_blocks);
    bj_exact = exact_probed probe_l lh && exact_probed probe_r rh;
  }

let prefer_block_join (ests : block_join_estimate list) ~(tuples : int) : bool =
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 ests in
  let block_cost = sum (fun e -> e.bj_left_probed_bytes + e.bj_right_probed_bytes) in
  let left_total = sum (fun e -> e.bj_left_probed_bytes + e.bj_left_skipped_bytes) in
  let right_total = sum (fun e -> e.bj_right_probed_bytes + e.bj_right_skipped_bytes) in
  let left_blocks = sum (fun e -> Array.length e.bj_probe_left) in
  let avg_left_block = if left_blocks = 0 then 0 else left_total / left_blocks in
  (* The hash join decodes essentially every build-side (right) block
     while keying the items, plus per-tuple probe-side lookups that
     touch at most one left block each (and never more than all of
     them). Once there are at least as many tuples as left blocks the
     probe side is fully decoded anyway (also avoids overflowing the
     product for symbolic "large" tuple counts). *)
  let probe_cost =
    if tuples >= left_blocks then left_total
    else min (tuples * avg_left_block) left_total
  in
  let hash_cost = right_total + probe_cost in
  block_cost <= hash_cost

type cost_breakdown = { storage : float; model : float; decompression : float; total : float }

let breakdown (t : t) (config : configuration) : cost_breakdown =
  let storage, model =
    List.fold_left
      (fun (s, m) (ids, alg) ->
        let (s', m') = estimate_set t ids alg in
        (s +. s', m +. m'))
      (0.0, 0.0) config.sets
  in
  let decompression =
    List.fold_left (fun acc p -> acc +. predicate_cost t config p) 0.0
      t.workload.Workload.predicates
  in
  {
    storage;
    model;
    decompression;
    total =
      (t.weights.w_storage *. storage)
      +. (t.weights.w_model *. model)
      +. (t.weights.w_decompression *. decompression);
  }
