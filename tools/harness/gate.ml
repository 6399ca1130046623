(* Bench regression gate: compare a fresh BENCH_results.json against the
   committed baseline with per-metric-class tolerances and produce a
   machine-readable verdict. Pure logic (JSON in, report out) so it can
   be unit-tested; the [tools/bench_gate.ml] executable is a thin CLI
   around it, and `make check` runs it in --quick mode.

   Both files have the shape
     { "experiments": { "<exp>": {...nested objects/lists/leaves...} } }
   Each experiment is flattened to dotted keys; list elements are
   labelled by an identifying field ("name", "id", "dataset", "domains"
   or "bytes") when one exists, by position otherwise, so reordering a
   result table does not break key matching but renaming a dataset
   does (as it should).

   Metric classes, decided from the key's last segment:
   - wall_s / *_s                harness wall time: always ignored
   - *_ms                        timing, lower is better; compared only
                                 in Full mode, tolerance 100% + 0.5 ms
                                 (bench machines vary; the gate is for
                                 step-change regressions, not noise)
   - *_mbps / *speedup*          timing, higher is better; Full mode
                                 only, fails if it halves
   - *bytes / *blocks / counts   deterministic sizes and cardinalities:
                                 5% relative or ±1 absolute, both modes
   - strings / bools             exact match, both modes (digests!)
   - everything else             ratio-like floats (compression
                                 factors, gains): 5% relative, ±0.01
                                 absolute, both modes

   A metric present in the baseline but absent in the candidate is
   [Missing] (fails the gate: a silently dropped measurement must not
   pass CI). A whole experiment absent from the candidate is skipped —
   that is how --quick runs a subset. Extra candidate metrics are
   ignored (new measurements land before their baseline). *)

module Json = Xquec_obs.Json

type mode = Full | Quick

type status = Pass | Fail | Skipped | Ignored | Missing

type entry = {
  e_exp : string;  (* experiment name *)
  e_key : string;  (* flattened dotted key within the experiment *)
  e_status : status;
  e_detail : string;  (* human-readable values/threshold summary *)
}

type report = {
  r_passed : bool;
  r_compared : int;  (* entries actually checked (Pass + Fail) *)
  r_failed : int;
  r_missing : int;
  r_skipped : int;  (* skipped metrics plus metrics of skipped experiments *)
  r_entries : entry list;  (* every key of every baseline experiment *)
}

(* --- flattening ----------------------------------------------------- *)

(* Leaf = anything that is not an object or list. *)
let ident_fields = [ "name"; "id"; "dataset"; "domains"; "bytes" ]

let leaf_label (j : Json.t) : string option =
  match j with
  | Json.Str s -> Some s
  | Json.Num n -> Some (Json.number_to_string n)
  | _ -> None

let element_label (j : Json.t) (idx : int) : string =
  match j with
  | Json.Obj fields ->
    let rec first = function
      | [] -> string_of_int idx
      | f :: rest -> (
        match List.assoc_opt f fields with
        | Some v -> (match leaf_label v with Some s -> s | None -> first rest)
        | None -> first rest)
    in
    first ident_fields
  | _ -> string_of_int idx

let rec flatten (prefix : string) (j : Json.t) (acc : (string * Json.t) list) :
    (string * Json.t) list =
  let join k = if prefix = "" then k else prefix ^ "." ^ k in
  match j with
  | Json.Obj fields -> List.fold_left (fun acc (k, v) -> flatten (join k) v acc) acc fields
  | Json.List items ->
    let _, acc =
      List.fold_left
        (fun (i, acc) item ->
          (i + 1, flatten (Printf.sprintf "%s[%s]" prefix (element_label item i)) item acc))
        (0, acc) items
    in
    acc
  | leaf -> (prefix, leaf) :: acc

(* oldest-first, stable across runs *)
let flatten_experiment (j : Json.t) : (string * Json.t) list = List.rev (flatten "" j [])

(* --- classification -------------------------------------------------- *)

type metric_class =
  | C_ignore
  | C_timing_lower  (* lower is better: *_ms *)
  | C_timing_higher  (* higher is better: *_mbps, speedups *)
  | C_count  (* deterministic sizes/cardinalities *)
  | C_ratio  (* ratio-like floats *)
  | C_exact  (* strings, bools *)

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let contains s sub =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let count_suffixes =
  [
    "bytes"; "blocks"; "count"; "records"; "elements"; "attributes"; "sets"; "depth";
    "tags"; "operators"; "inserts"; "misses"; "hits"; "waits"; "evictions"; "_kb";
    "domains"; "runs"; "queries";
  ]

(* last dotted segment, list labels stripped: "cache.query[range].cold_ms"
   -> "cold_ms" *)
let leaf_of_key (key : string) : string =
  let seg =
    match String.rindex_opt key '.' with
    | Some i -> String.sub key (i + 1) (String.length key - i - 1)
    | None -> key
  in
  match String.index_opt seg '[' with Some i -> String.sub seg 0 i | None -> seg

let classify (key : string) (v : Json.t) : metric_class =
  match v with
  | Json.Str _ | Json.Bool _ | Json.Null -> C_exact
  | _ ->
    let leaf = String.lowercase_ascii (leaf_of_key key) in
    if leaf = "wall_s" || has_suffix leaf "_s" then C_ignore
    else if has_suffix leaf "_ms" then C_timing_lower
    else if has_suffix leaf "_mbps" || contains leaf "speedup" then C_timing_higher
    else if List.exists (fun suf -> has_suffix leaf suf) count_suffixes then C_count
    else C_ratio

(* --- comparison ------------------------------------------------------ *)

let num = function Json.Num n -> Some n | _ -> None

let fmt = Json.number_to_string

let compare_metric ~(mode : mode) (key : string) (base : Json.t) (cand : Json.t) :
    status * string =
  match classify key base with
  | C_ignore -> (Ignored, "harness wall time")
  | C_exact ->
    let b = Json.to_string base and c = Json.to_string cand in
    if b = c then (Pass, "exact " ^ b)
    else (Fail, Printf.sprintf "exact mismatch: baseline %s, candidate %s" b c)
  | (C_timing_lower | C_timing_higher) when mode = Quick ->
    (Skipped, "timing skipped in quick mode")
  | cls -> (
    match (num base, num cand) with
    | Some b, Some c -> (
      match cls with
      | C_timing_lower ->
        let slack = Float.max 0.5 (Float.abs b) in
        if c -. b > slack then
          ( Fail,
            Printf.sprintf "slower: %s ms -> %s ms (allowed +%s)" (fmt b) (fmt c)
              (fmt slack) )
        else (Pass, Printf.sprintf "%s ms -> %s ms" (fmt b) (fmt c))
      | C_timing_higher ->
        let slack = Float.max 0.5 (0.5 *. Float.abs b) in
        if b -. c > slack then
          ( Fail,
            Printf.sprintf "degraded: %s -> %s (allowed -%s)" (fmt b) (fmt c) (fmt slack)
          )
        else (Pass, Printf.sprintf "%s -> %s" (fmt b) (fmt c))
      | C_count ->
        let slack = Float.max 1.0 (0.05 *. Float.abs b) in
        if Float.abs (c -. b) > slack then
          ( Fail,
            Printf.sprintf "count drift: %s -> %s (allowed ±%s)" (fmt b) (fmt c)
              (fmt slack) )
        else (Pass, Printf.sprintf "%s -> %s" (fmt b) (fmt c))
      | C_ratio | C_ignore | C_exact ->
        let slack = Float.max 0.01 (0.05 *. Float.abs b) in
        if Float.abs (c -. b) > slack then
          ( Fail,
            Printf.sprintf "ratio drift: %s -> %s (allowed ±%s)" (fmt b) (fmt c)
              (fmt slack) )
        else (Pass, Printf.sprintf "%s -> %s" (fmt b) (fmt c)))
    | _ ->
      ( Fail,
        Printf.sprintf "type mismatch: baseline %s, candidate %s" (Json.to_string base)
          (Json.to_string cand) ))

let experiments (j : Json.t) : (string * Json.t) list =
  match Json.member "experiments" j with Some (Json.Obj fields) -> fields | _ -> []

let compare_results ~(mode : mode) ~(baseline : Json.t) ~(candidate : Json.t) : report =
  let cand_exps = experiments candidate in
  let entries =
    List.concat_map
      (fun (exp, base_body) ->
        match List.assoc_opt exp cand_exps with
        | None ->
          (* whole experiment absent: a quick run covering a subset *)
          List.map
            (fun (key, _) ->
              { e_exp = exp; e_key = key; e_status = Skipped;
                e_detail = "experiment not in candidate" })
            (flatten_experiment base_body)
        | Some cand_body ->
          let cand_flat = flatten_experiment cand_body in
          List.map
            (fun (key, bv) ->
              match List.assoc_opt key cand_flat with
              | None ->
                let status =
                  match classify key bv with C_ignore -> Ignored | _ -> Missing
                in
                { e_exp = exp; e_key = key; e_status = status;
                  e_detail = "metric missing from candidate" }
              | Some cv ->
                let status, detail = compare_metric ~mode key bv cv in
                { e_exp = exp; e_key = key; e_status = status; e_detail = detail })
            (flatten_experiment base_body))
      (experiments baseline)
  in
  let count st = List.length (List.filter (fun e -> e.e_status = st) entries) in
  let failed = count Fail and missing = count Missing in
  let compared = count Pass + failed in
  {
    r_passed = failed = 0 && missing = 0 && compared > 0;
    r_compared = compared;
    r_failed = failed;
    r_missing = missing;
    r_skipped = count Skipped;
    r_entries = entries;
  }

(* --- output ---------------------------------------------------------- *)

let status_name = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Skipped -> "skipped"
  | Ignored -> "ignored"
  | Missing -> "missing"

let report_to_json (r : report) : Json.t =
  Json.Obj
    [
      ("passed", Json.Bool r.r_passed);
      ("compared", Json.Num (float_of_int r.r_compared));
      ("failed", Json.Num (float_of_int r.r_failed));
      ("missing", Json.Num (float_of_int r.r_missing));
      ("skipped", Json.Num (float_of_int r.r_skipped));
      ( "entries",
        Json.List
          (List.filter_map
             (fun e ->
               (* the verdict file records everything that is not a
                  plain pass; passes are summarized by the counter *)
               if e.e_status = Pass then None
               else
                 Some
                   (Json.Obj
                      [
                        ("experiment", Json.Str e.e_exp);
                        ("key", Json.Str e.e_key);
                        ("status", Json.Str (status_name e.e_status));
                        ("detail", Json.Str e.e_detail);
                      ]))
             r.r_entries) );
    ]

let render (r : report) : string =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun e ->
      match e.e_status with
      | Fail | Missing ->
        line "  %s %s/%s: %s" (String.uppercase_ascii (status_name e.e_status)) e.e_exp
          e.e_key e.e_detail
      | Pass | Skipped | Ignored -> ())
    r.r_entries;
  line "bench gate: %s (%d compared, %d failed, %d missing, %d skipped)"
    (if r.r_passed then "PASS" else "FAIL")
    r.r_compared r.r_failed r.r_missing r.r_skipped;
  Buffer.contents buf
