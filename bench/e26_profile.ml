(* E26 — explain-plan profiling overhead.  The per-span GC probes
   (Gc.quick_stat + Gc.minor_words samples around every span) and the
   attribute enrichment only run when tracing is enabled; with tracing off
   the probe must still cost one atomic load, and with tracing on the GC
   sampling must stay a small fraction of the E24 batch workload.  The
   sweep (disabled probe ns, enabled with gc probes off vs on, report fold
   time) is dumped to BENCH_PROFILE.json. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Obs = Consensus_obs.Obs
module Report = Consensus_obs.Report
module Json = Consensus_util.Json

(* The E24 batch workload: three top-k query shapes, each repeated three
   times, all through the [Api.run] entry the CLI uses — the workload the
   `explain` subcommand profiles. *)
let batch db ~k =
  let queries =
    [
      Api.Topk (k, Api.Kendall, Api.Mean);
      Api.Topk (k, Api.Sym_diff, Api.Median);
      Api.Topk (k, Api.Footrule, Api.Mean);
    ]
  in
  List.iter (fun q -> ignore (Api.run db q)) (queries @ queries @ queries)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* Cost of one disabled probe, measured on an empty thunk — must match the
   E23 figure: the GC sampling sits behind the same enabled check. *)
let disabled_probe_ns () =
  let iters = 10_000_000 in
  let t =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          Obs.with_span "e26.noop" (fun () -> ignore (Sys.opaque_identity ()))
        done)
  in
  let base =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity ())
        done)
  in
  Float.max 0. (t -. base) /. float_of_int iters *. 1e9

let measure ~reps f =
  f ();
  (* warmup *)
  Array.init reps (fun _ ->
      Obs.reset ();
      Harness.time_only f)

let run () =
  Harness.header "E26: explain-plan profiling overhead (GC probes)";
  let g = Prng.create ~seed:2601 () in
  let n = if !Harness.quick then 30 else 60 in
  let k = 8 in
  let reps = if !Harness.quick then 5 else 9 in
  let db = Gen.bid_db g n in
  let was_enabled = Obs.enabled () in
  let had_gc_probes = Obs.gc_probes () in
  Obs.set_enabled false;
  let probe_ns = disabled_probe_ns () in
  (* enabled tracing, GC probes off: the pre-profiling span cost. *)
  Obs.set_enabled true;
  Obs.set_gc_probes false;
  let plain = measure ~reps (fun () -> batch db ~k) in
  (* enabled tracing with GC probes: the full explain-plan recording. *)
  Obs.set_gc_probes true;
  let probed = measure ~reps (fun () -> batch db ~k) in
  (* folding the recorded forest into a profile is part of `explain`. *)
  Obs.reset ();
  batch db ~k;
  let spans = Obs.spans () in
  let fold_s = Harness.time_only (fun () -> ignore (Report.of_spans spans)) in
  let profile = Report.capture () in
  Obs.set_gc_probes had_gc_probes;
  Obs.set_enabled was_enabled;
  Obs.reset ();
  let plain_med = median plain and probed_med = median probed in
  let gc_overhead_pct = ((probed_med /. plain_med) -. 1.) *. 100. in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf "9-query top-k batch, n=%d keys, k=%d, median of %d" n
           k reps)
      [ ("tracing", Harness.Tables.Left); ("median (ms)", Harness.Tables.Right) ]
  in
  Harness.Tables.add_row table [ "on, gc probes off"; Harness.ms plain_med ];
  Harness.Tables.add_row table [ "on, gc probes on"; Harness.ms probed_med ];
  Harness.Tables.print table;
  Harness.note "disabled probe cost: %.1f ns/call (gc sampling gated off)"
    probe_ns;
  Harness.note "GC-probe overhead on enabled tracing: %+.2f%%" gc_overhead_pct;
  Harness.note
    "profile fold: %d spans -> %d names in %s ms (%.0f minor words attributed)"
    (List.length spans)
    (List.length profile.Report.rows)
    (Harness.ms fold_s) profile.Report.gc_total.Obs.gc_minor_words;
  let runs a = Json.List (Array.to_list a |> List.map (fun t -> Json.Float t)) in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e26_profile");
        ("workload", Json.Str "3x3 repeated top-k queries via Api.run (E24)");
        ("keys", Json.Int n);
        ("k", Json.Int k);
        ("reps", Json.Int reps);
        ("disabled_probe_ns", Json.Float probe_ns);
        ( "gc_probes_off",
          Json.Obj
            [ ("median_s", Json.Float plain_med); ("runs_s", runs plain) ] );
        ( "gc_probes_on",
          Json.Obj
            [ ("median_s", Json.Float probed_med); ("runs_s", runs probed) ] );
        ("gc_probe_overhead_pct", Json.Float gc_overhead_pct);
        ( "fold",
          Json.Obj
            [
              ("spans", Json.Int (List.length spans));
              ("names", Json.Int (List.length profile.Report.rows));
              ("fold_s", Json.Float fold_s);
              ( "gc_minor_words",
                Json.Float profile.Report.gc_total.Obs.gc_minor_words );
            ] );
      ]
  in
  let oc = open_out "BENCH_PROFILE.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "profiling sweep written to BENCH_PROFILE.json"
