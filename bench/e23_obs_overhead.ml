(* E23 — observability overhead.  Every probe in the pipeline gates on one
   atomic load, so with tracing off the instrumented E13-style rank workload
   must run within noise of itself; with tracing on the cost is the coarse
   spans (each carrying its GC delta) plus histogram updates.  Four
   measurements: the disabled span probe and the [Runtime.active] gate the
   serve scheduler polls per request (both measured directly, a few ns
   each), the rank workload with tracing off vs on, and the time to fold
   one traced sweep's spans into the explain profile ([Report.of_spans]).
   The sweep is dumped to BENCH_OBS.json, whose probe costs
   bench/check_trajectory.ml pins. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Obs = Consensus_obs.Obs
module Report = Consensus_obs.Report
module Runtime = Consensus_obs.Runtime
module Json = Consensus_util.Json

(* The E13 rank workload: full rank-distribution context plus the footrule
   assignment — touches anxor, matching, core and engine probes. *)
let workload db () =
  let ctx = Rank_consensus.make_ctx db in
  ignore (Rank_consensus.mean_footrule ctx)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* One timed sweep with tracing off or on.  A traced sweep starts from
   empty buffers, so the spans left behind are exactly that sweep's: the
   forest `explain` folds. *)
let sweep db ~tracing =
  Obs.set_enabled tracing;
  if tracing then Obs.reset ();
  Harness.time_only (workload db)

let iters = 10_000_000

(* Cost of one disabled probe, measured on an empty thunk. *)
let disabled_probe_ns () =
  let t =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          Obs.with_span "e23.noop" (fun () -> ignore (Sys.opaque_identity ()))
        done)
  in
  let base =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity ())
        done)
  in
  Float.max 0. (t -. base) /. float_of_int iters *. 1e9

(* The scheduler's per-request gate when the GC-pause consumer is off: one
   atomic load and a branch. *)
let runtime_gate_ns () =
  let hits = ref 0 in
  let t =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          if Runtime.active () then incr hits
        done)
  in
  ignore (Sys.opaque_identity !hits);
  t /. float_of_int iters *. 1e9

let run () =
  Harness.header "E23: observability overhead (tracing off vs on)";
  let g = Prng.create ~seed:2301 () in
  let n = if !Harness.quick then 30 else 80 in
  let reps = if !Harness.quick then 5 else 9 in
  let db = Gen.bid_db g n in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled false;
  let probe_ns = disabled_probe_ns () in
  let gate_ns = runtime_gate_ns () in
  (* One warmup each, then off and on alternate, so drift over the run
     (heap growth, frequency scaling) falls on both sides. *)
  ignore (sweep db ~tracing:false);
  ignore (sweep db ~tracing:true);
  let off = Array.make reps 0. and on = Array.make reps 0. in
  for i = 0 to reps - 1 do
    off.(i) <- sweep db ~tracing:false;
    on.(i) <- sweep db ~tracing:true
  done;
  let spans = Obs.spans () in
  let profile = Report.of_spans spans in
  let folds =
    Array.init reps (fun _ ->
        Harness.time_only (fun () -> ignore (Report.of_spans spans)))
  in
  Obs.set_enabled was_enabled;
  if not was_enabled then Obs.reset ();
  let off_med = median off and on_med = median on and fold_s = median folds in
  let overhead_pct = ((on_med /. off_med) -. 1.) *. 100. in
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "rank workload, n=%d keys, median of %d" n reps)
      [ ("tracing", Harness.Tables.Left); ("median (ms)", Harness.Tables.Right) ]
  in
  Harness.Tables.add_row table [ "off"; Harness.ms off_med ];
  Harness.Tables.add_row table [ "on"; Harness.ms on_med ];
  Harness.Tables.print table;
  Harness.note "enabled-tracing overhead: %+.2f%% (%d spans per sweep)"
    overhead_pct (List.length spans);
  Harness.note "disabled span probe: %.1f ns/call; Runtime.active gate: %.1f ns"
    probe_ns gate_ns;
  Harness.note
    "profile fold: %d spans -> %d names in %s ms (%.0f minor words attributed)"
    (List.length spans)
    (List.length profile.Report.rows)
    (Harness.ms fold_s) profile.Report.gc_total.Obs.gc_minor_words;
  let runs a = Json.List (Array.to_list a |> List.map (fun t -> Json.Float t)) in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e23_obs_overhead");
        ("workload", Json.Str "rank ctx build + mean footrule (E13)");
        ("keys", Json.Int n);
        ("reps", Json.Int reps);
        ("disabled_probe_ns", Json.Float probe_ns);
        ("runtime_gate_ns", Json.Float gate_ns);
        ( "disabled",
          Json.Obj [ ("median_s", Json.Float off_med); ("runs_s", runs off) ] );
        ( "enabled",
          Json.Obj
            [
              ("median_s", Json.Float on_med);
              ("runs_s", runs on);
              ("spans_per_sweep", Json.Int (List.length spans));
            ] );
        ("overhead_pct", Json.Float overhead_pct);
        ( "fold",
          Json.Obj
            [
              ("spans", Json.Int (List.length spans));
              ("names", Json.Int (List.length profile.Report.rows));
              ("median_s", Json.Float fold_s);
              ("runs_s", runs folds);
              ( "gc_minor_words",
                Json.Float profile.Report.gc_total.Obs.gc_minor_words );
            ] );
      ]
  in
  Harness.write_json "BENCH_OBS.json" json
