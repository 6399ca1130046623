(** Bench regression gate: compare a fresh [BENCH_results.json] against
    the committed baseline with per-metric-class tolerances and produce
    a machine-readable verdict. Pure logic (JSON in, report out); the
    [tools/bench_gate.ml] executable is the CLI around it.

    Metric classes are inferred from each flattened key's last segment:
    harness wall times ([wall_s]) are ignored; [*_ms] / [*_mbps] /
    speedups are timings, compared only in {!Full} mode with generous
    (2x) tolerance; byte/block/cardinality counts must stay within 5%
    (±1); strings and bools (digests) must match exactly; remaining
    floats (compression ratios, gains) must stay within 5% (±0.01).
    A metric present in the baseline but absent from the candidate
    fails the gate; a whole absent experiment is skipped (that is how
    [--quick] runs a subset); extra candidate metrics are ignored. *)

(** {!Quick} skips timing metrics — the mode [make check] uses so CI
    passes don't depend on machine speed. *)
type mode = Full | Quick

(** Outcome of one baseline metric. *)
type status = Pass | Fail | Skipped | Ignored | Missing

(** One baseline metric's comparison result. *)
type entry = {
  e_exp : string;  (** experiment name *)
  e_key : string;  (** flattened dotted key within the experiment *)
  e_status : status;
  e_detail : string;  (** values / threshold, human-readable *)
}

(** Whole-run verdict. [r_passed] requires zero failures, zero missing
    metrics and at least one actual comparison. *)
type report = {
  r_passed : bool;
  r_compared : int;  (** entries actually checked (pass + fail) *)
  r_failed : int;
  r_missing : int;
  r_skipped : int;
  r_entries : entry list;  (** every key of every baseline experiment *)
}

(** Compare parsed baseline and candidate result files. *)
val compare_results :
  mode:mode -> baseline:Xquec_obs.Json.t -> candidate:Xquec_obs.Json.t -> report

(** Machine-readable verdict (summary counters plus every non-pass
    entry). *)
val report_to_json : report -> Xquec_obs.Json.t

(** Human-readable verdict: one line per failure, then the summary. *)
val render : report -> string
