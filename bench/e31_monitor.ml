(* E31 — continuous runtime telemetry overhead and GC-pause attribution.
   PR "telemetry" adds the metrics time-series sampler (lib/obs/monitor),
   the Runtime_events GC-pause consumer (lib/obs/runtime), SLO burn rates
   and the flight recorder.  Three measurements: (1) the disabled probes —
   the span probe and the [Runtime.active] gate on the scheduler's
   per-request poll — must stay at a few ns; (2) the E28 saturation fleet
   replayed with the monitor + runtime-events consumer on (the daemon
   default, 1 s interval) vs forced off, with the req/s cost also compared
   against E28's committed tracing-on baseline; (3) a tail-attribution run
   (slow capture on, 50 ms sampling, allocation-heavy uncached queries)
   that must surface slow-ring entries with nonzero [gc_pause_ms] backed
   by recorded Runtime_events pause windows.  Results go to
   BENCH_MONITOR.json. *)

open Consensus_util
module Gen = Consensus_workload.Gen
module Daemon = Consensus_serve.Daemon
module Cache = Consensus_cache.Cache
module Obs = Consensus_obs.Obs
module Runtime = Consensus_obs.Runtime
module Monitor = Consensus_obs.Monitor
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

(* First "throughput_rps" in BENCH_REQTRACE.json is the tracing-on run —
   the daemon default this experiment's monitor-on run extends. *)
let e28_throughput () =
  match
    let ic = open_in "BENCH_REQTRACE.json" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | text -> (
      let key = "\"throughput_rps\":" in
      let klen = String.length key and n = String.length text in
      let rec find i =
        if i + klen > n then None
        else if String.sub text i klen = key then Some (i + klen)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some j ->
          let k = ref j in
          while
            !k < n
            &&
            match text.[!k] with
            | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
            | _ -> false
          do
            incr k
          done;
          float_of_string_opt (String.sub text j (!k - j)))

(* ---------- saturation fleet, monitor on vs off ---------- *)

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

let serve_run db ~monitor_interval ~clients ~per_client =
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
        monitor_interval;
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

(* All "gc_pause_ms": VALUE occurrences in a /debug/slow body. *)
let gc_pause_values text =
  let key = "\"gc_pause_ms\":" in
  let klen = String.length key and n = String.length text in
  let out = ref [] in
  let rec scan i =
    if i + klen > n then List.rev !out
    else if String.sub text i klen = key then begin
      let k = ref (i + klen) in
      while
        !k < n
        &&
        match text.[!k] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr k
      done;
      (match float_of_string_opt (String.sub text (i + klen) (!k - i - klen)) with
      | Some v -> out := v :: !out
      | None -> ());
      scan !k
    end
    else scan (i + 1)
  in
  scan 0

type tail = {
  t_requests : int;
  t_slow : int;
  t_attributed : int;
  t_max_ms : float;
  t_pauses : int;
  t_pause_s : float;
}

(* Allocation-heavy uncached queries against a 50 ms sampler: every
   request re-evaluates (cache=false), the minor heap churns, and the
   scheduler attributes the Runtime_events pauses overlapping each
   request's run window into its slow-ring entry. *)
let tail_run db ~requests =
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
        monitor_interval = 0.05;
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
  (* Snapshot the pause accounting while the consumer is still up. *)
  let pauses = Runtime.pause_count () - pauses_before in
  let now = Unix.gettimeofday () in
  let pause_s = Runtime.pause_s_between ~t0:(now -. 600.) ~t1:now () in
  Daemon.stop d;
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
  Harness.header "E31: runtime telemetry + monitor overhead (lib/obs)";
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
     fleet so neither measured run is the cold one.  Then monitor on (the
     daemon default), then the identical fleet with the sampler and
     runtime-events consumer disabled. *)
  ignore
    (serve_run db ~monitor_interval:0. ~clients:(max 50 (clients / 4))
       ~per_client);
  (* A single ~1 s fleet is noisy (scheduler wakeups, connection churn);
     interleave three runs of each configuration and keep the fastest, so
     a one-off stall doesn't masquerade as telemetry overhead. *)
  let best a b = if a.rps >= b.rps then a else b in
  let reps = if !Harness.quick then 2 else 3 in
  let on = ref (serve_run db ~monitor_interval:1.0 ~clients ~per_client) in
  let off = ref (serve_run db ~monitor_interval:0. ~clients ~per_client) in
  for _ = 2 to reps do
    on := best !on (serve_run db ~monitor_interval:1.0 ~clients ~per_client);
    off := best !off (serve_run db ~monitor_interval:0. ~clients ~per_client)
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
  row "monitor on (default, 1 s)" on;
  row "monitor off" off;
  Harness.Tables.print table;
  Harness.note "disabled span probe: %.1f ns/call; Runtime.active gate: %.1f ns"
    probe_ns gate_ns;
  Harness.note "monitor-on req/s cost vs off: %+.2f%%" overhead_pct;
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
            "E28 saturation fleet, monitor+runtime-events on vs off; \
             uncached rank tail with 50 ms sampling" );
        ("clients", Json.Int clients);
        ("requests_per_client", Json.Int per_client);
        ("disabled_probe_ns", Json.Float probe_ns);
        ("runtime_gate_ns", Json.Float gate_ns);
        ("monitor_on", load_json on);
        ("monitor_off", load_json off);
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
