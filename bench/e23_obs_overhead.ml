(* E23 — observability overhead.  Every probe in the pipeline gates on one
   atomic load, so with tracing off the instrumented E13-style rank workload
   must run within noise of itself; with tracing on the cost is the coarse
   spans plus histogram updates.  The sweep (off vs on, plus the per-probe
   disabled cost measured directly) is dumped to BENCH_OBS.json. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Obs = Consensus_obs.Obs
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

let measure ~reps f =
  f ();
  (* warmup *)
  Array.init reps (fun _ -> Harness.time_only f)

(* Cost of one disabled probe, measured on an empty thunk. *)
let disabled_probe_ns () =
  let iters = 10_000_000 in
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

let run () =
  Harness.header "E23: observability overhead (tracing off vs on)";
  let g = Prng.create ~seed:2301 () in
  let n = if !Harness.quick then 30 else 80 in
  let reps = if !Harness.quick then 5 else 9 in
  let db = Gen.bid_db g n in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled false;
  let probe_ns = disabled_probe_ns () in
  let off = measure ~reps (workload db) in
  Obs.set_enabled true;
  let spans_before = List.length (Obs.spans ()) in
  let on = measure ~reps (workload db) in
  let spans_recorded = List.length (Obs.spans ()) - spans_before in
  Obs.set_enabled was_enabled;
  if not was_enabled then Obs.reset ();
  let off_med = median off and on_med = median on in
  let overhead_pct = ((on_med /. off_med) -. 1.) *. 100. in
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "rank workload, n=%d keys, median of %d" n reps)
      [ ("tracing", Harness.Tables.Left); ("median (ms)", Harness.Tables.Right) ]
  in
  Harness.Tables.add_row table [ "off"; Harness.ms off_med ];
  Harness.Tables.add_row table [ "on"; Harness.ms on_med ];
  Harness.Tables.print table;
  Harness.note "enabled-tracing overhead: %+.2f%% (%d spans recorded per sweep)"
    overhead_pct spans_recorded;
  Harness.note "disabled probe cost: %.1f ns/call" probe_ns;
  let runs a = Json.List (Array.to_list a |> List.map (fun t -> Json.Float t)) in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e23_obs_overhead");
        ("workload", Json.Str "rank ctx build + mean footrule (E13)");
        ("keys", Json.Int n);
        ("reps", Json.Int reps);
        ( "disabled",
          Json.Obj [ ("median_s", Json.Float off_med); ("runs_s", runs off) ] );
        ( "enabled",
          Json.Obj
            [
              ("median_s", Json.Float on_med);
              ("runs_s", runs on);
              ("spans_recorded", Json.Int spans_recorded);
            ] );
        ("overhead_pct", Json.Float overhead_pct);
        ("disabled_probe_ns", Json.Float probe_ns);
      ]
  in
  let oc = open_out "BENCH_OBS.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "overhead sweep written to BENCH_OBS.json"
