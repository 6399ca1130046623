(* Strategy analysis ("EXPLAIN"): reports, without touching any data, the
   evaluation strategy the executor will choose for a query — which paths
   resolve through the structure summary, which predicates push into
   containers (and whether they run in the compressed domain), which FOR
   variables join by hash/sorted probing, and which nested FLWORs
   decorrelate. The paper's optimizer was "not finalized" (§5); this
   module documents the heuristic planner the executor implements, and is
   what the workload examples and tests introspect. *)

open Storage
open Xquery

type predicate_plan = {
  predicate : string;            (* printed form *)
  containers : string list;      (* container paths it pushes into *)
  compressed_domain : bool;      (* evaluable on codes under current codecs *)
}

type decision =
  | Summary_path of { path : string; snodes : int }
      (** the path resolves entirely through the structure summary *)
  | Navigation of { path : string }
      (** per-node navigation (unknown provenance or positional preds) *)
  | Pushdown of predicate_plan
  | Scan_filter of predicate_plan
      (** pushed into containers but requires decompression *)
  | Hash_join of { variable : string; left : string; right : string; on_codes : bool }
  | Block_join of {
      variable : string;
      left : string;
      right : string;
      blocks_probed : int;
      blocks_skipped : int;
      skip_fraction : float;
    }
  | Sorted_probe of { variable : string; left : string; right : string; on_codes : bool }
  | Decorrelate of { variable : string; op : string; on_codes : bool }
  | Correlated_loop of { variable : string }

let pp_decision ppf = function
  | Summary_path { path; snodes } ->
    Fmt.pf ppf "summary access: %s (%d summary nodes, no tree parse)" path snodes
  | Navigation { path } -> Fmt.pf ppf "navigation: %s (per-node steps)" path
  | Pushdown p ->
    Fmt.pf ppf "pushdown [compressed domain]: %s -> {%s}" p.predicate
      (String.concat ", " p.containers)
  | Scan_filter p ->
    Fmt.pf ppf "pushdown [scan+decompress]: %s -> {%s}" p.predicate
      (String.concat ", " p.containers)
  | Hash_join { variable; left; right; on_codes } ->
    Fmt.pf ppf "hash join for $%s: %s = %s%s" variable left right
      (if on_codes then " (on compressed codes)" else "")
  | Block_join { variable; left; right; blocks_probed; blocks_skipped; skip_fraction } ->
    Fmt.pf ppf
      "block merge join for $%s: %s = %s (header overlap: %d blocks probed, %d skipped, %.0f%% skip)"
      variable left right blocks_probed blocks_skipped (100.0 *. skip_fraction)
  | Sorted_probe { variable; left; right; on_codes } ->
    Fmt.pf ppf "sorted probe for $%s: %s vs %s%s" variable left right
      (if on_codes then " (on compressed codes)" else "")
  | Decorrelate { variable; op; on_codes } ->
    Fmt.pf ppf "decorrelated nested flwor bound to $%s (%s join%s)" variable op
      (if on_codes then ", on compressed codes" else "")
  | Correlated_loop { variable } ->
    Fmt.pf ppf "correlated re-evaluation for $%s (no single join conjunct)" variable

module Sset = Analysis.Sset

(* Would a predicate of this class run on compressed codes for all the
   given containers (same model when comparing container-to-container)? *)
let class_in_domain (cls : [ `Eq | `Ineq | `Wild ]) (conts : Container.t list) =
  match conts with
  | [] -> false
  | first :: rest ->
    List.for_all
      (fun (c : Container.t) -> Compress.Codec.supports c.Container.algorithm cls)
      conts
    && (rest = []
       || List.for_all
            (fun (c : Container.t) -> c.Container.model_id = first.Container.model_id)
            rest)

let cls_of_op = function
  | Ast.Eq | Ast.Neq -> `Eq
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> `Ineq

let short e =
  let s = Ast.to_string e in
  if String.length s > 60 then String.sub s 0 57 ^ "..." else s

(** Analyze a query against a repository. *)
let explain (repo : Repository.t) (query : Ast.expr) : decision list =
  let ctx = Executor.mk_ctx repo in
  let out = ref [] in
  let emit d = out := d :: !out in
  let container_paths cs = List.map (fun (c : Container.t) -> c.Container.path) cs in
  (* walk the expression, maintaining an executor-style env of snode
     provenance (bindings carry empty item lists) *)
  let on_codes = function Executor.Mode_code _ -> true | Executor.Mode_atom -> false in
  let analyze_pred snodes (e : Ast.expr) =
    match Executor.recognize_pushable e with
    | None -> ()
    | Some p ->
      let (cls, printed, conts) =
        match p with
        | Executor.P_value (op, vsteps, _) ->
          let conts =
            match Executor.resolve_value_path ctx snodes vsteps with
            | Some resolved -> List.map fst resolved
            | None -> []
          in
          (cls_of_op op, short e, conts)
        | Executor.P_textual (kind, vsteps, _) ->
          let conts =
            match Executor.resolve_value_path ctx snodes vsteps with
            | Some resolved -> List.map fst resolved
            | None -> []
          in
          ((match kind with `Starts_with -> `Wild | `Contains -> `Wild), short e, conts)
        | Executor.P_exists _ -> (`Eq, short e, [])
      in
      if conts <> [] then begin
        let plan =
          { predicate = printed; containers = container_paths conts;
            compressed_domain = class_in_domain cls conts }
        in
        emit (if plan.compressed_domain then Pushdown plan else Scan_filter plan)
      end
  in
  let rec walk env (e : Ast.expr) =
    match e with
    | Ast.Path (src, steps) ->
      walk env src;
      let src_snodes = Executor.static_snodes ctx env src in
      let final = Executor.static_snodes ctx env e in
      let has_pos =
        List.exists
          (fun (st : Ast.step) ->
            List.exists
              (function Ast.Pos _ | Ast.Pos_last -> true | Ast.Cond _ -> false)
              st.Ast.predicates)
          steps
      in
      (match src with
      | Ast.Doc _ when final <> [] && not has_pos ->
        emit (Summary_path { path = short e; snodes = List.length final })
      | _ when final = [] || has_pos -> emit (Navigation { path = short e })
      | _ -> ());
      (* predicates inside steps *)
      let sn = ref src_snodes in
      List.iter
        (fun (st : Ast.step) ->
          sn := (match st.Ast.test with Ast.Text -> !sn | _ -> Executor.advance_snodes ctx !sn st);
          List.iter
            (function
              | Ast.Pos _ | Ast.Pos_last -> ()
              | Ast.Cond c ->
                analyze_pred !sn c;
                walk ((".", { Executor.seq = Executor.Mat []; snodes = !sn }) :: env) c)
            st.Ast.predicates)
        steps
    | Ast.Flwor (clauses, ret) -> walk_flwor env clauses ret
    | Ast.If (a, b, c) ->
      walk env a;
      walk env b;
      walk env c
    | Ast.Cmp (_, a, b) | Ast.Arith (_, a, b) | Ast.And (a, b) | Ast.Or (a, b)
    | Ast.Contains (a, b) | Ast.Starts_with (a, b) ->
      walk env a;
      walk env b
    | Ast.Ftcontains (a, _)
    | Ast.Not a | Ast.Aggregate (_, a) | Ast.Empty a | Ast.Exists a
    | Ast.Distinct_values a | Ast.String_of a | Ast.Number_of a | Ast.Name_of a ->
      walk env a
    | Ast.Some_satisfies (v, a, c) | Ast.Every_satisfies (v, a, c) ->
      walk env a;
      walk (Executor.bind_static ctx env v a) c
    | Ast.Element (_, attrs, kids) ->
      List.iter
        (fun (_, v) -> match v with Ast.Attr_expr e -> walk env e | Ast.Attr_string _ -> ())
        attrs;
      List.iter (walk env) kids
    | Ast.Sequence es -> List.iter (walk env) es
    | Ast.Literal_string _ | Ast.Literal_number _ | Ast.Var _ | Ast.Context | Ast.Doc _ -> ()
  (* the executor's clause pipeline, minus the data: each FOR/LET asks
     the executor's own planning functions what it will do *)
  and walk_flwor env clauses ret =
    let base_vars = Sset.of_list (List.map fst env) in
    let conjuncts = Analysis.where_conjuncts clauses in
    let bound = ref Sset.empty in
    let inner_env = ref env in
    let bind v e =
      inner_env := Executor.bind_static ctx !inner_env v e;
      bound := Sset.add v !bound
    in
    List.iter
      (fun clause ->
        match clause with
        | Ast.For (v, e) ->
          walk !inner_env e;
          let typing_env = Executor.bind_static ctx !inner_env v e in
          (if not (Analysis.mentions !bound e) then
             match Executor.find_join ~bound:!bound ~base_vars ~var:v conjuncts with
             | Some (_, (op, left_e, right_e)) -> (
               let left = short left_e and right = short right_e in
               let on_codes = on_codes (Executor.join_key_mode ctx typing_env left_e right_e) in
               match
                 if op = Ast.Eq then
                   Executor.block_join_pairings ctx typing_env ~var:v left_e right_e
                 else None
               with
               | Some pairings ->
                 let sum f =
                   List.fold_left (fun a (p : Executor.block_pairing) -> a + f p.Executor.bp_est)
                     0 pairings
                 in
                 let probed = sum (fun e -> e.Cost_model.bj_probed_blocks) in
                 let skipped = sum (fun e -> e.Cost_model.bj_skipped_blocks) in
                 let total = probed + skipped in
                 emit
                   (Block_join
                      { variable = v; left; right; blocks_probed = probed;
                        blocks_skipped = skipped;
                        skip_fraction =
                          (if total = 0 then 0.0 else float_of_int skipped /. float_of_int total)
                      })
               | None when op = Ast.Eq -> emit (Hash_join { variable = v; left; right; on_codes })
               | None -> emit (Sorted_probe { variable = v; left; right; on_codes }))
             | None -> ());
          bind v e
        | Ast.Let (v, e) ->
          if Analysis.mentions !bound e then
            emit
              (match
                 Executor.decorrelation ctx ~prov:!inner_env ~base_vars ~tuple_vars:!bound e
               with
              | Some dc ->
                Decorrelate
                  { variable = v; op = Ast.cmp_name dc.Executor.dc_op;
                    on_codes = on_codes dc.Executor.dc_mode }
              | None -> Correlated_loop { variable = v });
          walk !inner_env e;
          bind v e
        | Ast.Where e ->
          (* constant-side conjuncts resolve to container pushdowns *)
          List.iter
            (fun c ->
              match c with
              | Ast.Cmp (op, Ast.Path (Ast.Var v, vsteps), rhs)
                when Executor.const_of_expr rhs <> None -> (
                match List.assoc_opt v !inner_env with
                | Some b -> (
                  match Executor.resolve_value_path ctx b.Executor.snodes vsteps with
                  | Some resolved ->
                    let conts = List.map fst resolved in
                    let plan =
                      { predicate = short c; containers = container_paths conts;
                        compressed_domain = class_in_domain (cls_of_op op) conts }
                    in
                    emit (if plan.compressed_domain then Pushdown plan else Scan_filter plan)
                  | None -> ())
                | None -> ())
              | _ -> ())
            (Analysis.conjuncts e);
          walk !inner_env e
        | Ast.Order_by keys -> List.iter (fun (k, _) -> walk !inner_env k) keys)
      clauses;
    walk !inner_env ret
  in
  walk [] query;
  List.rev !out

let explain_string (repo : Repository.t) (query : string) : string =
  let decisions = explain repo (Xquery.Parser.parse query) in
  Fmt.str "%a" Fmt.(list ~sep:(any "@.") pp_decision) decisions

(** Render the EXPLAIN ANALYZE report for an already-profiled plan:
    strategy decisions followed by the annotated physical plan —
    per-operator wall time, output cardinalities, and
    compressed-domain vs. decompress-then-compare predicate counts. *)
let render_profiled (repo : Repository.t) (query : string)
    (plan : Xquec_obs.Explain.node) : string =
  let decisions = explain repo (Xquery.Parser.parse query) in
  let t = Xquec_obs.Explain.totals plan in
  let buf = Buffer.create 1024 in
  if decisions <> [] then begin
    Buffer.add_string buf "strategy:\n";
    List.iter (fun d -> Buffer.add_string buf (Fmt.str "  %a\n" pp_decision d)) decisions;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf "profiled plan:\n";
  Buffer.add_string buf (Xquec_obs.Explain.render plan);
  Buffer.add_string buf
    (Printf.sprintf "%d operators; predicate cmps: %d compressed-domain, %d decompressed\n"
       t.Xquec_obs.Explain.operators t.Xquec_obs.Explain.compressed
       t.Xquec_obs.Explain.decompressed);
  Buffer.contents buf
