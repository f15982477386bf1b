(* E31 — runtime telemetry overhead and GC-pause attribution.  The
   Runtime_events GC-pause consumer (lib/obs/runtime) attributes the
   runtime pauses overlapping each request's run window to that request
   ([gc_pause_ms]); [consensus serve] starts it, in-process daemons run
   without it.  Three measurements: (1) the disabled probes — the span
   probe and the [Runtime.active] gate on the scheduler's per-request poll
   — must stay at a few ns; (2) the E28 saturation fleet replayed with the
   consumer on (as [consensus serve] runs) vs off, with the req/s cost
   also compared against E28's committed tracing-on baseline; (3) a
   tail-attribution run (slow capture on, allocation-heavy uncached
   queries, the consumer drained by the scheduler itself) that must
   surface slow-ring entries with nonzero [gc_pause_ms] backed
   by recorded Runtime_events pause windows.  Results go to
   BENCH_MONITOR.json. *)

open Consensus_util
module Gen = Consensus_workload.Gen
module Daemon = Consensus_serve.Daemon
module Cache = Consensus_cache.Cache
module Obs = Consensus_obs.Obs
module Runtime = Consensus_obs.Runtime
module Json = Consensus_util.Json

(* ---------- disabled-probe costs ---------- *)

let disabled_probe_ns () =
  let iters = 10_000_000 in
  let t =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          Obs.with_span "e31.noop" (fun () -> ignore (Sys.opaque_identity ()))
        done)
  in
  let base =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity ())
        done)
  in
  Float.max 0. (t -. base) /. float_of_int iters *. 1e9

(* The scheduler's per-request gate when the consumer is off: one atomic
   load and a branch. *)
let runtime_gate_ns () =
  let iters = 10_000_000 in
  let hits = ref 0 in
  let t =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          if Runtime.active () then incr hits
        done)
  in
  ignore (Sys.opaque_identity !hits);
  t /. float_of_int iters *. 1e9

(* ---------- E28 baseline ---------- *)

(* E28's tracing-on run: the daemon configuration this experiment's
   runtime-on run extends. *)
let e28_throughput () =
  Harness.committed_float "BENCH_REQTRACE.json" [ "tracing_on"; "throughput_rps" ]

(* ---------- saturation fleet, runtime-events consumer on vs off ---------- *)

let shapes =
  [|
    "topk k=2 metric=footrule";
    "topk k=4 metric=footrule";
    "topk k=8 metric=footrule";
    "topk k=2 metric=symdiff";
    "topk k=4 metric=symdiff";
    "topk k=8 metric=symdiff";
    "topk k=2 metric=intersection";
    "world metric=symdiff";
    "rank metric=footrule";
  |]

type load = {
  ok : int;
  total : int;
  wall : float;
  rps : float;
  p50 : float;
  p99 : float;
}

(* The consumer wraps the daemon, as in [consensus serve]. *)
let serve_run db ~runtime ~clients ~per_client =
  if runtime then Runtime.start ();
  let d =
    Daemon.start
      {
        Daemon.default_config with
        dbs = [ ("small", db) ];
        jobs = 2;
        max_inflight = 4;
        max_queue = 4 * clients;
        max_connections = 256;
        access_log = false;
      }
  in
  let port = Daemon.port d in
  Cache.clear ();
  Array.iter
    (fun shape ->
      ignore (E27_serve.post_query port ~params:"?db=small" (shape ^ "\n")))
    shapes;
  let shots, wall =
    E27_serve.fleet clients per_client (fun i r ->
        let body = shapes.((i + r) mod Array.length shapes) ^ "\n" in
        E27_serve.post_query port ~params:"?db=small" body)
  in
  Daemon.stop d;
  if runtime then Runtime.stop ();
  let ok = E27_serve.count_status shots 200 in
  let latencies =
    List.filter (fun s -> s.E27_serve.status = 200) shots
    |> List.map (fun s -> s.E27_serve.latency)
    |> Array.of_list
  in
  Array.sort Float.compare latencies;
  {
    ok;
    total = clients * per_client;
    wall;
    rps = float_of_int ok /. wall;
    p50 = E27_serve.percentile latencies 0.50;
    p99 = E27_serve.percentile latencies 0.99;
  }

(* ---------- tail attribution ---------- *)

(* The [gc_pause_ms] of every entry in a /debug/slow body. *)
let gc_pause_values text =
  match Json.of_string text with
  | Error _ -> []
  | Ok doc -> (
      match Json.member "slow" doc with
      | Some (Json.List entries) ->
          List.filter_map
            (fun e -> Option.bind (Json.member "gc_pause_ms" e) Json.to_float)
            entries
      | _ -> [])

type tail = {
  t_requests : int;
  t_slow : int;
  t_attributed : int;
  t_max_ms : float;
  t_pauses : int;
  t_pause_s : float;
}

(* Allocation-heavy uncached queries: every request re-evaluates
   (cache=false), the minor heap churns, and the scheduler attributes the
   Runtime_events pauses overlapping each request's run window into its
   slow-ring entry.  No sampler drains the consumer: the scheduler does,
   fully after a request that ran 20 ms or more and at most every 0.2 s
   otherwise, so a fast request sees only the pauses already drained. *)
let tail_run db ~requests =
  Runtime.start ();
  let pauses_before = Runtime.pause_count () in
  let d =
    Daemon.start
      {
        Daemon.default_config with
        dbs = [ ("tail", db) ];
        jobs = 2;
        max_inflight = 2;
        max_queue = 8;
        access_log = false;
        slow_threshold = 0.;
        slow_capacity = requests + 1;
      }
  in
  let port = Daemon.port d in
  for i = 0 to requests - 1 do
    let body =
      (if i mod 2 = 0 then "rank metric=kendall" else "rank metric=footrule")
      ^ "\n"
    in
    ignore (E27_serve.post_query port ~params:"?db=tail&cache=false" body)
  done;
  let _, slow_body =
    E27_serve.request port ~meth:"GET" ~path:"/debug/slow" ~body:""
  in
  (* Snapshot the pause accounting while the consumer is still up, after
     one last drain (the slow entries above are already written). *)
  Runtime.poll ();
  let pauses = Runtime.pause_count () - pauses_before in
  let now = Unix.gettimeofday () in
  let pause_s = Runtime.pause_s_between ~t0:(now -. 600.) ~t1:now () in
  Daemon.stop d;
  Runtime.stop ();
  let values = gc_pause_values slow_body in
  {
    t_requests = requests;
    t_slow = List.length values;
    t_attributed = List.length (List.filter (fun v -> v > 0.) values);
    t_max_ms = List.fold_left Float.max 0. values;
    t_pauses = pauses;
    t_pause_s = pause_s;
  }

let run () =
  Harness.header "E31: runtime-events telemetry overhead (lib/obs)";
  let g = Prng.create ~seed:3101 () in
  let clients = if !Harness.quick then 200 else 1000 in
  let per_client = 2 in
  let db = Gen.bid_db g 14 in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled false;
  let probe_ns = disabled_probe_ns () in
  let gate_ns = runtime_gate_ns () in
  (* The process's first fleet pays one-off costs (domain spawn paths,
     allocator growth, connection churn warmup); run a throwaway quarter
     fleet so neither measured run is the cold one.  Then the consumer on
     (as [consensus serve] runs), then the identical fleet without it. *)
  ignore
    (serve_run db ~runtime:false ~clients:(max 50 (clients / 4)) ~per_client);
  (* A single ~1 s fleet is noisy (scheduler wakeups, connection churn);
     interleave three runs of each configuration and keep the fastest, so
     a one-off stall doesn't masquerade as telemetry overhead. *)
  let best a b = if a.rps >= b.rps then a else b in
  let reps = if !Harness.quick then 2 else 3 in
  let on = ref (serve_run db ~runtime:true ~clients ~per_client) in
  let off = ref (serve_run db ~runtime:false ~clients ~per_client) in
  for _ = 2 to reps do
    on := best !on (serve_run db ~runtime:true ~clients ~per_client);
    off := best !off (serve_run db ~runtime:false ~clients ~per_client)
  done;
  let on = !on in
  let off = !off in
  let tail =
    tail_run (Gen.bid_db g (if !Harness.quick then 40 else 60)) ~requests:20
  in
  Obs.set_enabled was_enabled;
  Obs.reset ();
  let overhead_pct = (1. -. (on.rps /. off.rps)) *. 100. in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf "%d clients x %d requests, 4 workers, saturation"
           clients per_client)
      [
        ("telemetry", Harness.Tables.Left);
        ("200s", Harness.Tables.Right);
        ("req/s", Harness.Tables.Right);
        ("p50", Harness.Tables.Right);
        ("p99", Harness.Tables.Right);
      ]
  in
  let row label l =
    Harness.Tables.add_row table
      [
        label;
        Printf.sprintf "%d/%d" l.ok l.total;
        Printf.sprintf "%.0f" l.rps;
        Harness.ms l.p50;
        Harness.ms l.p99;
      ]
  in
  row "runtime events on (serve default)" on;
  row "runtime events off" off;
  Harness.Tables.print table;
  Harness.note "disabled span probe: %.1f ns/call; Runtime.active gate: %.1f ns"
    probe_ns gate_ns;
  Harness.note "runtime-on req/s cost vs off: %+.2f%%" overhead_pct;
  let e28_rps = e28_throughput () in
  let vs_e28_pct =
    Option.map (fun rps -> (1. -. (on.rps /. rps)) *. 100.) e28_rps
  in
  (match (e28_rps, vs_e28_pct) with
  | Some rps, Some pct ->
      Harness.note "vs E28 tracing-on baseline (%.0f req/s): %+.2f%%" rps pct
  | _ ->
      Harness.note
        "E28 baseline not found (BENCH_REQTRACE.json absent); run E28 first \
         for the cross-experiment figure");
  Harness.note
    "tail attribution: %d/%d slow entries with nonzero gc_pause_ms (max \
     %.3f ms) backed by %d runtime pauses (%.1f ms total)"
    tail.t_attributed tail.t_slow tail.t_max_ms tail.t_pauses
    (1000. *. tail.t_pause_s);
  let load_json l =
    Json.Obj
      [
        ("requests", Json.Int l.total);
        ("completed_200", Json.Int l.ok);
        ("wall_s", Json.Float l.wall);
        ("throughput_rps", Json.Float l.rps);
        ("p50_ms", Json.Float (1000. *. l.p50));
        ("p99_ms", Json.Float (1000. *. l.p99));
      ]
  in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e31_monitor");
        ( "workload",
          Json.Str
            "E28 saturation fleet, runtime-events consumer on vs off; \
             uncached rank tail, drained by the scheduler" );
        ("clients", Json.Int clients);
        ("requests_per_client", Json.Int per_client);
        ("disabled_probe_ns", Json.Float probe_ns);
        ("runtime_gate_ns", Json.Float gate_ns);
        ("runtime_on", load_json on);
        ("runtime_off", load_json off);
        ("rps_overhead_pct", Json.Float overhead_pct);
        ( "e28_baseline_rps",
          match e28_rps with Some v -> Json.Float v | None -> Json.Null );
        ( "rps_overhead_vs_e28_pct",
          match vs_e28_pct with Some v -> Json.Float v | None -> Json.Null );
        ( "tail_attribution",
          Json.Obj
            [
              ("requests", Json.Int tail.t_requests);
              ("slow_entries", Json.Int tail.t_slow);
              ("nonzero_gc_pause_ms", Json.Int tail.t_attributed);
              ("max_gc_pause_ms", Json.Float tail.t_max_ms);
              ("runtime_pauses", Json.Int tail.t_pauses);
              ("pause_seconds_total", Json.Float tail.t_pause_s);
            ] );
      ]
  in
  let oc = open_out "BENCH_MONITOR.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "telemetry sweep written to BENCH_MONITOR.json"
