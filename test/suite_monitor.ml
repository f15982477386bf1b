(* Runtime telemetry: the metrics time-series sampler (window deltas,
   histogram-delta percentile extraction at exact bucket boundaries,
   sparklines), the Runtime_events GC-pause consumer, SLO burn-rate
   evaluation, the flight recorder, the log ring racing [Obs.reset], and
   the daemon's /debug/history, /debug/slo and flight-recorder plumbing
   end to end over real sockets. *)

module Obs = Consensus_obs.Obs
module Log = Consensus_obs.Log
module Json = Consensus_util.Json
module Monitor = Consensus_obs.Monitor
module Runtime = Consensus_obs.Runtime
module Slo = Consensus_obs.Slo
module Flight = Consensus_obs.Flight
module Daemon = Consensus_serve.Daemon

(* Shared helpers from the other suites: the dependency-free JSON parser
   and the raw-socket HTTP client. *)
let parse_json = Suite_obs.parse_json
let member = Json.member
let http_request = Suite_serve.http_request
let contains = Suite_serve.contains

let check_float = Alcotest.(check (float 1e-9))

let snapshot_value name =
  List.assoc_opt name (Obs.snapshot ())

let counter_value name =
  match snapshot_value name with
  | Some (Obs.Counter_value v) -> v
  | _ -> 0

(* ---------- histogram-delta percentile extraction ---------- *)

let test_quantile_boundaries () =
  let bounds = [| 1.; 2.; 4. |] in
  let counts = [| 2; 2; 0; 1 |] in
  (* total 5: rank(0.4) = 2 lands exactly on the first bucket boundary,
     rank(0.8) = 4 exactly on the second. *)
  check_float "q=0.4 on boundary" 1.0 (Monitor.quantile ~bounds ~counts 0.4);
  check_float "q=0.8 on boundary" 2.0 (Monitor.quantile ~bounds ~counts 0.8);
  check_float "q small clamps to rank 1" 1.0
    (Monitor.quantile ~bounds ~counts 0.01);
  Alcotest.(check bool)
    "q=1.0 falls in overflow" true
    (Monitor.quantile ~bounds ~counts 1.0 = Float.infinity);
  Alcotest.(check bool)
    "median skips the empty bucket" true
    (Monitor.quantile ~bounds ~counts:[| 0; 3; 0; 1 |] 0.5 = 2.0);
  Alcotest.(check bool)
    "empty window is nan" true
    (Float.is_nan (Monitor.quantile ~bounds ~counts:[| 0; 0; 0; 0 |] 0.5))

(* ---------- sampler windows ---------- *)

(* A sampler with a huge interval: the background domain ticks once at
   start, everything else is driven by explicit [sample_now]. *)
let with_monitor f =
  Suite_obs.with_obs @@ fun () ->
  Monitor.start ~interval:3600. ();
  Fun.protect ~finally:Monitor.stop f

let test_sampler_windows () =
  with_monitor @@ fun () ->
  let c = Obs.Counter.make "test_mon_ops_total" in
  let g = Obs.Gauge.make "test_mon_depth" in
  let h = Obs.Histogram.make ~buckets:[| 0.01; 0.1; 1. |] "test_mon_lat_seconds" in
  Monitor.sample_now ();
  Obs.Counter.add c 5;
  Obs.Gauge.set g 2.5;
  Obs.Histogram.observe h 0.05;
  Obs.Histogram.observe h 0.05;
  Obs.Histogram.observe h 0.05;
  Obs.Histogram.observe h 0.5;
  Unix.sleepf 0.02;
  Monitor.sample_now ();
  Alcotest.(check bool) "running" true (Monitor.running ());
  (match Monitor.window_delta "test_mon_ops_total" ~window:3600. with
  | Some (Monitor.Counter_window w) ->
      Alcotest.(check int) "counter delta" 5 w.cw_delta;
      Alcotest.(check int) "counter last" 5 w.cw_last;
      Alcotest.(check bool) "positive span" true (w.cw_span_s > 0.)
  | _ -> Alcotest.fail "expected a counter window");
  (match Monitor.window_delta "test_mon_depth" ~window:3600. with
  | Some (Monitor.Gauge_window w) ->
      check_float "gauge last" 2.5 w.gw_last;
      check_float "gauge max" 2.5 w.gw_max
  | _ -> Alcotest.fail "expected a gauge window");
  (match Monitor.window_delta "test_mon_lat_seconds" ~window:3600. with
  | Some (Monitor.Histogram_window w) ->
      Alcotest.(check int) "histogram count" 4 w.hw_count;
      (* Rolling percentiles from the bucket deltas: 3 of 4 events in the
         0.1 bucket puts p50 on that boundary; the 0.5 outlier drags p99
         to the 1.0 bucket. *)
      check_float "rolling p50" 0.1
        (Monitor.quantile ~bounds:w.hw_bounds ~counts:w.hw_counts 0.50);
      check_float "rolling p99" 1.0
        (Monitor.quantile ~bounds:w.hw_bounds ~counts:w.hw_counts 0.99)
  | _ -> Alcotest.fail "expected a histogram window");
  (match Monitor.history_json ~metric:"test_mon_ops_total" ~window:3600. with
  | Ok doc -> (
      let j = parse_json (Json.to_string doc) in
      Alcotest.(check bool)
        "history kind" true
        (member "kind" j = Some (Json.Str "counter"));
      (match member "samples" j with
      | Some (Json.List samples) ->
          Alcotest.(check bool) "two samples" true (List.length samples >= 2)
      | _ -> Alcotest.fail "history has no samples");
      match member "window" j with
      | Some w ->
          Alcotest.(check bool)
            "window delta" true
            (member "delta" w = Some (Json.Int 5))
      | None -> Alcotest.fail "history has no window summary")
  | Error _ -> Alcotest.fail "history_json failed");
  (match Monitor.sparkline ~metric:"test_mon_depth" ~window:3600. with
  | Ok text ->
      Alcotest.(check bool) "spark header" true (contains text "test_mon_depth");
      Alcotest.(check bool) "spark blocks" true (contains text "\xe2\x96")
  | Error _ -> Alcotest.fail "sparkline failed");
  match Monitor.history_json ~metric:"no_such_metric" ~window:60. with
  | Error `Unknown_metric -> ()
  | _ -> Alcotest.fail "unknown metric must be reported"

let test_monitor_stopped () =
  Alcotest.(check bool) "not running" false (Monitor.running ());
  match Monitor.history_json ~metric:"anything" ~window:60. with
  | Error `Not_running -> ()
  | _ -> Alcotest.fail "history without a sampler must say not running"

(* ---------- runtime-events pauses ---------- *)

let test_runtime_pauses () =
  Suite_obs.with_obs @@ fun () ->
  Runtime.start ();
  Fun.protect ~finally:Runtime.stop @@ fun () ->
  let before = Runtime.pause_count () in
  let t0 = Unix.gettimeofday () in
  (* Allocation churn with the data kept live, then a full major and a
     compaction: guaranteed top-level runtime phases on this domain's
     ring, including at least one pause long enough for the attribution
     ring's [min_attributable_pause] floor. *)
  let keep = ref [] in
  for _ = 1 to 20 do
    keep := List.init 5000 string_of_int :: !keep;
    Gc.minor ()
  done;
  Gc.full_major ();
  Gc.compact ();
  ignore (Sys.opaque_identity !keep);
  Runtime.poll ();
  let t1 = Unix.gettimeofday () in
  Alcotest.(check bool)
    "pauses observed" true
    (Runtime.pause_count () > before);
  let recent = Runtime.recent_pauses ~limit:8 () in
  Alcotest.(check bool) "recent pauses" true (recent <> []);
  List.iter
    (fun (p : Runtime.pause) ->
      Alcotest.(check bool) "non-negative duration" true (p.pw_dur >= 0.);
      Alcotest.(check bool)
        "pause within the churn window" true
        (p.pw_start >= t0 -. 60. && p.pw_start <= t1 +. 1.))
    recent;
  Alcotest.(check bool)
    "window overlap positive" true
    (Runtime.pause_s_between ~t0 ~t1 () > 0.);
  match snapshot_value "gc_pause_seconds" with
  | Some (Obs.Histogram_value h) ->
      Alcotest.(check bool) "histogram fed" true (h.Obs.hs_count > 0)
  | _ -> Alcotest.fail "gc_pause_seconds not in the snapshot"

(* ---------- SLO parsing and burn rates ---------- *)

let test_slo_parse () =
  (match Slo.parse "latency=250ms:0.99" with
  | Ok (Slo.Latency { threshold_s; quantile }) ->
      check_float "threshold" 0.25 threshold_s;
      check_float "quantile" 0.99 quantile
  | _ -> Alcotest.fail "latency spec must parse");
  (match Slo.parse "latency=1500us:0.5" with
  | Ok (Slo.Latency { threshold_s; _ }) -> check_float "us suffix" 0.0015 threshold_s
  | _ -> Alcotest.fail "us suffix must parse");
  (match Slo.parse "error_rate=0.01" with
  | Ok (Slo.Error_rate { target }) -> check_float "target" 0.01 target
  | _ -> Alcotest.fail "error_rate spec must parse");
  List.iter
    (fun spec ->
      match Slo.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "spec %S must be rejected" spec)
    [
      "latency=abc";
      "latency=250ms";
      "latency=250ms:1.5";
      "latency=0ms:0.9";
      "error_rate=2";
      "error_rate=0";
      "bogus=1";
      "nonsense";
    ]

let test_slo_burn () =
  with_monitor @@ fun () ->
  Fun.protect ~finally:Slo.clear @@ fun () ->
  let lat =
    Obs.Histogram.make ~buckets:[| 0.01; 0.1; 1. |] "test_slo_latency_seconds"
  in
  let reqs = Obs.Counter.make "test_slo_requests_total" in
  let errs = Obs.Counter.make "test_slo_errors_total" in
  Monitor.sample_now ();
  for _ = 1 to 10 do
    Obs.Histogram.observe lat 0.5
  done;
  Obs.Counter.add reqs 100;
  Obs.Counter.add errs 3;
  Unix.sleepf 0.02;
  Monitor.sample_now ();
  let config =
    {
      Slo.fast_window = 3600.;
      slow_window = 3600.;
      fast_burn_threshold = 5.;
      latency_metric = "test_slo_latency_seconds";
      requests_metric = "test_slo_requests_total";
      errors_metric = "test_slo_errors_total";
    }
  in
  let trips_before = Slo.trip_count () in
  Slo.install ~config
    [
      Slo.Latency { threshold_s = 0.01; quantile = 0.9 };
      Slo.Error_rate { target = 0.01 };
    ];
  Slo.evaluate ();
  (match Slo.status () with
  | [ l; e ] ->
      (* All 10 observations exceed 10 ms against a 10% budget: burn 10,
         over the threshold of 5.  The error rate burns 3% / 1% = 3,
         under it. *)
      check_float "latency fast burn" 10. l.Slo.st_fast_burn;
      Alcotest.(check bool) "latency tripped" true l.Slo.st_tripped;
      Alcotest.(check int) "latency window events" 10 l.Slo.st_window_total;
      check_float "error-rate fast burn" 3. e.Slo.st_fast_burn;
      Alcotest.(check bool) "error rate not tripped" false e.Slo.st_tripped
  | _ -> Alcotest.fail "expected two SLO statuses");
  Alcotest.(check bool) "degraded" true (Slo.degraded ());
  Alcotest.(check bool) "trip recorded" true (Slo.trip_count () > trips_before);
  let j = parse_json (Json.to_string (Slo.to_json ())) in
  Alcotest.(check bool)
    "to_json degraded" true
    (member "degraded" j = Some (Json.Bool true));
  Slo.clear ();
  Alcotest.(check bool) "cleared" false (Slo.degraded ());
  Alcotest.(check (list string)) "no objectives" []
    (List.map Slo.to_string (Slo.installed ()))

(* ---------- flight recorder ---------- *)

let temp_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "consensus-%s-%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let cleanup_dir dir =
  (try
     Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
       (Sys.readdir dir)
   with _ -> ());
  try Unix.rmdir dir with _ -> ()

let flight_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f > 7
         && String.sub f 0 7 = "flight-"
         && Filename.check_suffix f ".json")

let test_flight_dump_and_rate_limit () =
  with_monitor @@ fun () ->
  let dir = temp_dir "flight" in
  Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Log.set_stderr true;
      Flight.disable ();
      cleanup_dir dir)
  @@ fun () ->
  Flight.configure ~min_interval:3600. ~window:60. ~dir ();
  Alcotest.(check bool) "configured" true (Flight.configured ());
  let path =
    match Flight.dump_now ~reason:"test" with
    | Ok p -> p
    | Error e -> Alcotest.failf "dump_now failed: %s" e
  in
  Alcotest.(check bool) "dump exists" true (Sys.file_exists path);
  Alcotest.(check (option string)) "last_dump" (Some path) (Flight.last_dump ());
  let ic = open_in path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json raw in
  List.iter
    (fun key ->
      if member key j = None then Alcotest.failf "dump lacks %S section" key)
    [ "flight"; "slo"; "spans"; "log"; "gc_pauses"; "metrics_history"; "metrics" ];
  (match member "flight" j with
  | Some meta ->
      Alcotest.(check bool)
        "dump reason" true
        (member "reason" meta = Some (Json.Str "test"))
  | None -> Alcotest.fail "no flight metadata");
  (* A trigger inside the rate-limit window is suppressed, not dumped. *)
  let files_before = List.length (flight_files dir) in
  let suppressed_before = counter_value "flight_recorder_suppressed_total" in
  Flight.request "again";
  Flight.tick ();
  Alcotest.(check int)
    "rate-limited trigger writes nothing" files_before
    (List.length (flight_files dir));
  Alcotest.(check int)
    "suppression counted" (suppressed_before + 1)
    (counter_value "flight_recorder_suppressed_total");
  (* Reconfiguring without a rate limit lets the next trigger through. *)
  Flight.configure ~min_interval:0. ~window:60. ~dir ();
  Flight.request "later";
  Flight.tick ();
  Alcotest.(check int)
    "trigger dumps once allowed" (files_before + 1)
    (List.length (flight_files dir));
  match Flight.last_dump () with
  | Some p -> Alcotest.(check bool) "reason in name" true (contains p "later")
  | None -> Alcotest.fail "no dump recorded"

(* ---------- log ring racing reset ---------- *)

let test_log_ring_reset_race () =
  Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Log.set_stderr true;
      Log.reset ())
  @@ fun () ->
  Log.reset ();
  Obs.reset ();
  let writers =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 400 do
              Log.info
                ~fields:(fun () ->
                  [ ("writer", Json.Int d); ("i", Json.Int i) ])
                "race"
            done))
  in
  (* Race the writers with repeated ring and metrics resets: the ring must
     stay structurally sound whatever interleaving happens. *)
  for _ = 1 to 40 do
    Log.reset ();
    Obs.reset ();
    Unix.sleepf 0.0005
  done;
  List.iter Domain.join writers;
  let events = Log.recent () in
  Alcotest.(check bool)
    "ring bounded" true
    (List.length events <= Log.ring_capacity);
  List.iter
    (fun (e : Log.event) ->
      Alcotest.(check string) "only race events survive" "race" e.Log.ev_name;
      Alcotest.(check bool) "fields intact" true (List.length e.Log.ev_fields = 2))
    events;
  Log.reset ();
  Alcotest.(check int) "reset empties the ring" 0 (List.length (Log.recent ()))

(* ---------- daemon: /debug endpoints and parameter validation ---------- *)

let with_monitor_daemon ?(slos = []) ?slo_config ?flight_dir
    ?(slow_threshold = infinity) f =
  let config =
    {
      Daemon.default_config with
      Daemon.dbs = [ ("main", Suite_serve.small_db ()) ];
      jobs = 2;
      max_inflight = 2;
      max_queue = 16;
      monitor_interval = 0.05;
      slow_threshold;
      slos;
      slo_config =
        (match slo_config with Some c -> c | None -> Slo.default_config);
      flight_dir;
    }
  in
  let daemon = Daemon.start config in
  Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Log.set_stderr true;
      Daemon.stop daemon)
    (fun () -> f daemon (Daemon.port daemon))

let check_json_error name ~port target frag =
  let status, body = http_request ~port ~meth:"GET" ~target "" in
  Alcotest.(check int) (name ^ " status") 400 status;
  Alcotest.(check bool) (name ^ " json error") true (contains body "\"error\"");
  Alcotest.(check bool) (name ^ " names the parameter") true (contains body frag)

let rec poll_until ?(tries = 160) name f =
  if tries = 0 then Alcotest.failf "timed out waiting for %s" name
  else if f () then ()
  else begin
    Unix.sleepf 0.05;
    poll_until ~tries:(tries - 1) name f
  end

let test_daemon_debug_endpoints () =
  with_monitor_daemon @@ fun _daemon port ->
  check_json_error "trace non-numeric limit" ~port "/trace?limit=abc" "limit";
  check_json_error "trace negative limit" ~port "/trace?limit=-1" "limit";
  check_json_error "slow non-numeric limit" ~port "/debug/slow?limit=abc" "limit";
  check_json_error "slow negative limit" ~port "/debug/slow?limit=-1" "limit";
  check_json_error "log non-numeric limit" ~port "/debug/log?limit=xyz" "limit";
  check_json_error "history missing metric" ~port "/debug/history" "metric";
  check_json_error "history bad window" ~port
    "/debug/history?metric=serve_requests_total&window=banana" "window";
  check_json_error "history negative window" ~port
    "/debug/history?metric=serve_requests_total&window=-5" "window";
  check_json_error "history bad format" ~port
    "/debug/history?metric=serve_requests_total&format=bogus" "format";
  let status, body =
    http_request ~port ~meth:"GET"
      ~target:"/debug/history?metric=no_such_metric_anywhere" ""
  in
  Alcotest.(check int) "unknown metric" 404 status;
  Alcotest.(check bool) "unknown metric json" true (contains body "\"error\"");
  (* The sampler needs at least one tick before history answers. *)
  poll_until "a monitor sample" (fun () ->
      fst
        (http_request ~port ~meth:"GET"
           ~target:"/debug/history?metric=serve_requests_total" "")
      = 200);
  let status, body =
    http_request ~port ~meth:"GET"
      ~target:"/debug/history?metric=serve_requests_total&window=60" ""
  in
  Alcotest.(check int) "history ok" 200 status;
  let j = parse_json body in
  Alcotest.(check bool)
    "history kind" true
    (member "kind" j = Some (Json.Str "counter"));
  let status, body =
    http_request ~port ~meth:"GET"
      ~target:"/debug/history?metric=serve_request_seconds&format=spark" ""
  in
  Alcotest.(check int) "sparkline ok" 200 status;
  Alcotest.(check bool)
    "sparkline names the metric" true
    (contains body "serve_request_seconds");
  let status, body = http_request ~port ~meth:"GET" ~target:"/debug/slo" "" in
  Alcotest.(check int) "slo ok" 200 status;
  Alcotest.(check bool)
    "no objectives installed" true
    (contains body "\"objectives\":[]");
  let status, _ = http_request ~port ~meth:"POST" ~target:"/debug/history" "" in
  Alcotest.(check int) "history rejects POST" 405 status;
  (* Process-identity gauges and the engine-pool domain count are part of
     the exposition. *)
  let status, body = http_request ~port ~meth:"GET" ~target:"/metrics" "" in
  Alcotest.(check int) "metrics ok" 200 status;
  List.iter
    (fun metric ->
      Alcotest.(check bool) ("exposes " ^ metric) true (contains body metric))
    [
      "process_uptime_seconds";
      "process_start_time_seconds";
      "ocaml_domains_active";
      "gc_pause_seconds";
    ];
  match snapshot_value "ocaml_domains_active" with
  | Some (Obs.Gauge_value v) ->
      Alcotest.(check bool) "live worker domains" true (v >= 1.)
  | _ -> Alcotest.fail "ocaml_domains_active not in the snapshot"

(* ---------- daemon acceptance: SLO degradation and flight dump ---------- *)

let str_members key items =
  List.filter_map
    (fun item ->
      match member key item with Some (Json.Str s) -> Some s | _ -> None)
    items

let test_daemon_slo_flight_acceptance () =
  let dir = temp_dir "accept" in
  Fun.protect ~finally:(fun () -> cleanup_dir dir) @@ fun () ->
  let slo_config =
    { Slo.default_config with Slo.fast_window = 60.; slow_window = 120. }
  in
  with_monitor_daemon
    ~slos:[ Slo.Latency { threshold_s = 1e-6; quantile = 0.99 } ]
    ~slo_config ~flight_dir:dir ~slow_threshold:0.
  @@ fun _daemon port ->
  (* The suite may have dumped recently in another test; drop the rate
     limit so this daemon's trip dumps immediately. *)
  Flight.configure ~min_interval:0. ~window:60. ~dir ();
  for _ = 1 to 25 do
    let status, _ = http_request ~port ~meth:"POST" ~target:"/query" "topk k=3" in
    Alcotest.(check int) "query ok" 200 status
  done;
  (* Every request takes longer than 1 us, so the fast burn saturates at
     1 / (1 - 0.99) = 100 >> 14.4 as soon as the sampler has a window. *)
  poll_until "healthz degradation" (fun () ->
      let status, body = http_request ~port ~meth:"GET" ~target:"/healthz" "" in
      status = 200 && contains body "degraded");
  let status, body = http_request ~port ~meth:"GET" ~target:"/debug/slo" "" in
  Alcotest.(check int) "slo ok" 200 status;
  let j = parse_json body in
  Alcotest.(check bool)
    "slo degraded" true
    (member "degraded" j = Some (Json.Bool true));
  (match member "objectives" j with
  | Some (Json.List (o :: _)) ->
      (match Option.bind (member "burn_fast" o) Json.to_float with
      | Some burn ->
          Alcotest.(check bool) "burn over threshold" true (burn >= 14.4)
      | _ -> Alcotest.fail "objective has no burn_fast");
      Alcotest.(check bool)
        "objective tripped" true
        (member "fast_burn_tripped" o = Some (Json.Bool true))
  | _ -> Alcotest.fail "no objectives in /debug/slo");
  (* The trip edge must produce a flight dump. *)
  poll_until "a flight dump" (fun () -> flight_files dir <> []);
  let file =
    match flight_files dir with
    | f :: _ -> Filename.concat dir f
    | [] -> Alcotest.fail "no dump"
  in
  let ic = open_in file in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let dump = parse_json raw in
  (match member "flight" dump with
  | Some meta ->
      Alcotest.(check bool)
        "dump reason is the trip" true
        (member "reason" meta = Some (Json.Str "slo_fast_burn"))
  | None -> Alcotest.fail "dump has no flight metadata");
  let span_ids =
    match member "spans" dump with
    | Some (Json.List spans) -> str_members "request" spans
    | _ -> Alcotest.fail "dump has no spans"
  in
  let log_ids =
    match member "log" dump with
    | Some (Json.List events) -> str_members "request" events
    | _ -> Alcotest.fail "dump has no log"
  in
  Alcotest.(check bool) "spans carry request ids" true (span_ids <> []);
  Alcotest.(check bool) "log carries request ids" true (log_ids <> []);
  Alcotest.(check bool)
    "span and log windows share request ids" true
    (List.exists (fun id -> List.mem id log_ids) span_ids);
  (* The metrics section's latency exemplars name requests from the same
     window as the spans and the log. *)
  let exemplar_ids =
    match member "metrics" dump with
    | Some metrics -> (
        match member "serve_request_seconds" metrics with
        | Some hist -> (
            match member "buckets" hist with
            | Some (Json.List buckets) ->
                List.filter_map
                  (fun b ->
                    match member "exemplar" b with
                    | Some ex -> (
                        match member "request" ex with
                        | Some (Json.Str s) -> Some s
                        | _ -> None)
                    | None -> None)
                  buckets
            | _ -> [])
        | None -> [])
    | None -> Alcotest.fail "dump has no metrics section"
  in
  Alcotest.(check bool)
    "metrics exemplars reference dumped requests" true
    (exemplar_ids <> []
    && List.exists
         (fun id -> List.mem id span_ids || List.mem id log_ids)
         exemplar_ids);
  (match member "metrics_history" dump with
  | Some history ->
      Alcotest.(check bool)
        "history covers the latency metric" true
        (member "serve_request_seconds" history <> None)
  | None -> Alcotest.fail "dump has no metrics history");
  (* Every request was slow-captured (threshold 0); the entries carry the
     GC-pause attribution field. *)
  let status, body = http_request ~port ~meth:"GET" ~target:"/debug/slow?limit=5" "" in
  Alcotest.(check int) "slow ring ok" 200 status;
  Alcotest.(check bool) "slow entries attribute gc" true (contains body "gc_pause_ms")

let suite =
  [
    Alcotest.test_case "histogram-delta quantiles at bucket boundaries" `Quick
      test_quantile_boundaries;
    Alcotest.test_case "sampler windows, history and sparklines" `Quick
      test_sampler_windows;
    Alcotest.test_case "history without a sampler says not running" `Quick
      test_monitor_stopped;
    Alcotest.test_case "runtime-events pauses are recorded and windowed" `Quick
      test_runtime_pauses;
    Alcotest.test_case "slo spec parsing" `Quick test_slo_parse;
    Alcotest.test_case "slo burn rates trip and clear" `Quick test_slo_burn;
    Alcotest.test_case "flight recorder dumps and rate limits" `Quick
      test_flight_dump_and_rate_limit;
    Alcotest.test_case "log ring survives resets racing writers" `Quick
      test_log_ring_reset_race;
    Alcotest.test_case "daemon debug endpoints validate parameters" `Quick
      test_daemon_debug_endpoints;
    Alcotest.test_case "slo degradation and flight dump end to end" `Quick
      test_daemon_slo_flight_acceptance;
  ]
