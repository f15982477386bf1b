(* E28 — request-tracing overhead on the serving path.  PR "observability"
   threads a request context through the scheduler and engine pool and tags
   every span with the owning request; this experiment checks the fabric
   stays cheap.  Two measurements: (1) the disabled span probe must still
   cost a handful of ns (same idiom as E23/E26 — the context plumbing sits
   behind the same enabled check); (2) two sequential daemons replay the
   E27 phase-1 saturation load with tracing on (the daemon default) vs
   forced off, and the req/s regression must stay within a few percent.
   Access logging is off for both runs so the sweep isolates the tracing
   fabric, not stderr formatting.  Results go to BENCH_REQTRACE.json. *)

open Consensus_util
module Gen = Consensus_workload.Gen
module Daemon = Consensus_serve.Daemon
module Cache = Consensus_cache.Cache
module Obs = Consensus_obs.Obs
module Json = Consensus_util.Json

(* Cost of one disabled probe on an empty thunk — the request-context tag
   lookup only happens once the enabled check passes, so this must match
   the E23/E26 figure. *)
let disabled_probe_ns () =
  let iters = 10_000_000 in
  let t =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          Obs.with_span "e28.noop" (fun () -> ignore (Sys.opaque_identity ()))
        done)
  in
  let base =
    Harness.time_only (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity ())
        done)
  in
  Float.max 0. (t -. base) /. float_of_int iters *. 1e9

(* The E27 phase-1 query mix: cached after each shape's first evaluation,
   so the fleet measures the serving fabric rather than kernel time. *)
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

(* E27's published saturation throughput, read back from BENCH_SERVE.json
   when E27 ran earlier in this harness invocation (the experiments run in
   order).  A bench-local scan, not a JSON parser: the file has exactly one
   "throughput_rps" key (the saturation phase). *)
let e27_throughput () =
  match
    let ic = open_in "BENCH_SERVE.json" in
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

type load = {
  ok : int;
  total : int;
  wall : float;
  rps : float;
  p50 : float;
  p99 : float;
}

(* One daemon lifecycle: start (which force-enables tracing), set tracing
   to the measured state, warm the shared cache from a cold start so both
   runs see identical hit rates, run the fleet, tear down. *)
let serve_run db ~tracing ~clients ~per_client =
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
        (* Pin the continuous monitor (a later experiment's subject) off:
           this experiment isolates the serving fabric itself, and its
           committed baselines predate the sampler. *)
        monitor_interval = 0.;
      }
  in
  Obs.set_enabled tracing;
  let port = Daemon.port d in
  (* The cache is process-global: clear it, then evaluate each shape once
     so neither configuration inherits warm entries from the other and the
     measured fleet is all hits — the serving fabric, not kernel time. *)
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

let run () =
  Harness.header "E28: request-tracing overhead (lib/serve + lib/obs)";
  (* Same seed, database and fleet shape as E27 phase 1, so the tracing-on
     run replays the exact load point behind E27's saturation figure. *)
  let g = Prng.create ~seed:2701 () in
  let clients = if !Harness.quick then 200 else 1000 in
  let per_client = 2 in
  let db = Gen.bid_db g 14 in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled false;
  let probe_ns = disabled_probe_ns () in
  (* The process's first fleet pays one-off costs (domain spawn paths,
     allocator growth); run a throwaway quarter fleet so the measured
     tracing-on run is not the cold one. *)
  ignore
    (serve_run db ~tracing:false ~clients:(max 50 (clients / 4)) ~per_client);
  (* Tracing on first (the daemon default the acceptance test exercises),
     then the same fleet against a fresh daemon with tracing forced off.
     A single ~1 s fleet is noisy; interleave three runs of each
     configuration and keep the fastest so a one-off stall doesn't read
     as tracing overhead. *)
  let best a b = if a.rps >= b.rps then a else b in
  let reps = if !Harness.quick then 2 else 3 in
  let on = ref (serve_run db ~tracing:true ~clients ~per_client) in
  let off = ref (serve_run db ~tracing:false ~clients ~per_client) in
  for _ = 2 to reps do
    on := best !on (serve_run db ~tracing:true ~clients ~per_client);
    off := best !off (serve_run db ~tracing:false ~clients ~per_client)
  done;
  let on = !on in
  let off = !off in
  Obs.set_enabled was_enabled;
  Obs.reset ();
  let regression_pct = (1. -. (on.rps /. off.rps)) *. 100. in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf "%d clients x %d requests, 4 workers, saturation"
           clients per_client)
      [
        ("tracing", Harness.Tables.Left);
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
  row "on (default)" on;
  row "off" off;
  Harness.Tables.print table;
  Harness.note "disabled probe cost: %.1f ns/call (request tag behind it)"
    probe_ns;
  Harness.note "tracing-on req/s regression vs off: %+.2f%%" regression_pct;
  let e27_rps = e27_throughput () in
  let vs_e27_pct =
    Option.map (fun rps -> (1. -. (on.rps /. rps)) *. 100.) e27_rps
  in
  (match (e27_rps, vs_e27_pct) with
  | Some rps, Some pct ->
      Harness.note
        "vs E27 saturation baseline (%.0f req/s, tracing on): %+.2f%%" rps pct
  | _ ->
      Harness.note
        "E27 baseline not found (BENCH_SERVE.json absent); run E27 first for \
         the cross-experiment regression figure");
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
        ("experiment", Json.Str "e28_reqtrace");
        ( "workload",
          Json.Str
            "E27 phase-1 loopback fleet, tracing on vs off, access log off" );
        ("clients", Json.Int clients);
        ("requests_per_client", Json.Int per_client);
        ("disabled_probe_ns", Json.Float probe_ns);
        ("tracing_on", load_json on);
        ("tracing_off", load_json off);
        ("rps_regression_pct", Json.Float regression_pct);
        ( "e27_baseline_rps",
          match e27_rps with Some v -> Json.Float v | None -> Json.Null );
        ( "rps_regression_vs_e27_pct",
          match vs_e27_pct with Some v -> Json.Float v | None -> Json.Null );
      ]
  in
  let oc = open_out "BENCH_REQTRACE.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "request-tracing sweep written to BENCH_REQTRACE.json"
