(* Report (explain-plan) tests: folding a hand-built span forest into
   self-times, GC attribution, parallel efficiency and cache attribution;
   the property that self-times stay non-negative and sum to the root
   durations under concurrent multi-domain recording; and a live scrape of
   the Expose HTTP server over a raw socket. *)

module Obs = Consensus_obs.Obs
module Report = Consensus_obs.Report
module Expose = Consensus_obs.Expose
module Json = Consensus_util.Json
module Pool = Consensus_engine.Pool

let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let gc words = { Obs.zero_gc with gc_minor_words = words }

let span ?(attrs = []) ?(gc_words = 0.) name ~tid ~ts ~dur =
  {
    Obs.span_name = name;
    span_ts = ts;
    span_dur = dur;
    span_tid = tid;
    span_attrs = attrs;
    span_gc = gc gc_words;
    span_request = None;
  }

let row name t = List.find (fun r -> r.Report.row_name = name) t.Report.rows

(* ---------- folding a hand-built forest ---------- *)

(* tid 1: api.run [0,10] containing one engine.parallel [1,5] and two cache
   lookups; tid 2: one engine.chunk [1.2,4.2] executed by a worker domain. *)
let hand_built () =
  [
    span "api.run" ~tid:1 ~ts:0. ~dur:10. ~gc_words:100.;
    span "engine.parallel" ~tid:1 ~ts:1. ~dur:4. ~gc_words:50.
      ~attrs:[ ("jobs", Obs.Int 2); ("sequential", Obs.Bool false) ];
    span "cache.lookup" ~tid:1 ~ts:6. ~dur:1. ~gc_words:5.
      ~attrs:[ ("family", Obs.Str "rank_table"); ("hit", Obs.Bool true) ];
    span "cache.lookup" ~tid:1 ~ts:8. ~dur:1. ~gc_words:5.
      ~attrs:[ ("family", Obs.Str "rank_table"); ("hit", Obs.Bool false) ];
    span "engine.chunk" ~tid:2 ~ts:1.2 ~dur:3. ~gc_words:40.;
  ]

let feq = Alcotest.(check (float 1e-9))

let test_fold_self_times () =
  let t = Report.of_spans (hand_built ()) in
  Alcotest.(check int) "span count" 5 t.Report.span_count;
  Alcotest.(check int) "domain count" 2 t.Report.domain_count;
  feq "wall: earliest start to latest end" 10. t.Report.wall_s;
  (* Roots: api.run (10 s) on tid 1, engine.chunk (3 s) on tid 2. *)
  feq "accounted = summed roots" 13. t.Report.accounted_s;
  feq "api.run self = 10 - 4 - 1 - 1" 4. (row "api.run" t).Report.row_self_s;
  feq "engine.parallel self (no recorded children)" 4.
    (row "engine.parallel" t).Report.row_self_s;
  Alcotest.(check int) "two lookups" 2 (row "cache.lookup" t).Report.row_count;
  feq "lookup total" 2. (row "cache.lookup" t).Report.row_total_s;
  feq "chunk self (own domain root)" 3. (row "engine.chunk" t).Report.row_self_s;
  (* Σ self = Σ roots: the defining telescoping identity. *)
  feq "self times sum to accounted" t.Report.accounted_s
    (List.fold_left (fun a r -> a +. r.Report.row_self_s) 0. t.Report.rows)

let test_fold_gc_attribution () =
  let t = Report.of_spans (hand_built ()) in
  feq "api.run self gc = 100 - 50 - 5 - 5" 40.
    (row "api.run" t).Report.row_gc.Obs.gc_minor_words;
  feq "parallel keeps own gc (chunk is another domain's child-less root)" 50.
    (row "engine.parallel" t).Report.row_gc.Obs.gc_minor_words;
  feq "gc total = roots" 140. t.Report.gc_total.Obs.gc_minor_words

let test_fold_parallelism_and_cache () =
  let t = Report.of_spans (hand_built ()) in
  feq "parallel wall" 4. t.Report.parallelism.Report.par_wall_s;
  feq "busy = chunk time" 3. t.Report.parallelism.Report.par_busy_s;
  Alcotest.(check int) "jobs" 2 t.Report.parallelism.Report.par_jobs;
  feq "ratio" 0.75 t.Report.parallelism.Report.par_ratio;
  Alcotest.(check int) "hits" 1 t.Report.cache.Report.ca_hits;
  Alcotest.(check int) "misses" 1 t.Report.cache.Report.ca_misses;
  match t.Report.cache.Report.ca_families with
  | [ { Report.fc_family = "rank_table"; fc_hits = 1; fc_misses = 1 } ] -> ()
  | _ -> Alcotest.fail "per-family attribution wrong"

let test_fold_empty () =
  let t = Report.of_spans [] in
  feq "wall" 0. t.Report.wall_s;
  Alcotest.(check int) "spans" 0 t.Report.span_count;
  Alcotest.(check (list string)) "no rows" []
    (List.map (fun r -> r.Report.row_name) t.Report.rows);
  feq "neutral parallel ratio" 1. t.Report.parallelism.Report.par_ratio

let test_renderings () =
  let t = Report.of_spans (hand_built ()) in
  let text = Report.to_text ~top:3 t in
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "text names the hotspot" true
    (contains "api.run" text);
  Alcotest.(check bool) "text has the profile header" true
    (contains "profile:" text);
  (match Suite_obs.parse_json (Report.to_json ~top:2 t) with
  | Json.Obj fields ->
      (match List.assoc_opt "hotspots" fields with
      | Some (Json.List rows) ->
          Alcotest.(check int) "top bounds hotspots" 2 (List.length rows)
      | _ -> Alcotest.fail "profile JSON has no hotspots array");
      Alcotest.(check bool) "has cache object" true
        (List.mem_assoc "cache" fields)
  | _ -> Alcotest.fail "profile JSON is not an object")

(* ---------- live recording property ---------- *)

(* Whatever nesting the engine produces across domains, every per-name self
   time is within [0, total], and the self times over all names telescope
   back to the summed root durations. *)
let prop_self_times_telescope =
  QCheck.Test.make ~count:20
    ~name:"report self-times non-negative, telescoping to roots"
    QCheck.(
      pair (1 -- 4) (list_of_size Gen.(1 -- 12) (int_bound 40)))
    (fun (jobs, sizes) ->
      Obs.reset ();
      Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.set_enabled false;
          Obs.reset ())
        (fun () ->
          Pool.with_pool ~jobs (fun pool ->
              List.iteri
                (fun qi size ->
                  Obs.with_span
                    ("test.report.q" ^ string_of_int (qi mod 3))
                    (fun () ->
                      ignore
                        (Pool.parallel_init ~pool size (fun i ->
                             Obs.with_span "test.report.item" (fun () -> i * i)))))
                sizes);
          let t = Report.of_spans (Obs.spans ()) in
          let sum_self =
            List.fold_left (fun a r -> a +. r.Report.row_self_s) 0. t.Report.rows
          in
          List.for_all
            (fun r ->
              r.Report.row_self_s >= 0.
              && r.Report.row_self_s <= r.Report.row_total_s +. 1e-9)
            t.Report.rows
          && Float.abs (sum_self -. t.Report.accounted_s)
             <= 1e-6 +. (1e-6 *. t.Report.accounted_s)
          && t.Report.accounted_s >= 0.))

(* ---------- live exposition ---------- *)

let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec go () =
        match Unix.read sock chunk 0 1024 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
      in
      go ();
      Buffer.contents buf)

let split_response resp =
  let sep = "\r\n\r\n" in
  let n = String.length resp in
  let rec find i =
    if i + 4 > n then Alcotest.fail "response has no header terminator"
    else if String.sub resp i 4 = sep then i
    else find (i + 1)
  in
  let i = find 0 in
  (String.sub resp 0 i, String.sub resp (i + 4) (n - i - 4))

let check_status resp expected =
  let header, body = split_response resp in
  let status =
    match String.index_opt header '\r' with
    | Some i -> String.sub header 0 i
    | None -> header
  in
  Alcotest.(check string) "status line" expected status;
  body

(* Minimal Prometheus text validation: every non-comment line is
   "name[{labels}] value" with a float value. *)
let check_prometheus_text body =
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "metric line without value: %s" line
           | Some i -> (
               let value =
                 String.sub line (i + 1) (String.length line - i - 1)
               in
               match float_of_string_opt value with
               | Some _ -> ()
               | None -> Alcotest.failf "metric value not a float: %s" line))

let test_expose_scrape () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test_report_scrape_total" in
  Obs.Counter.incr c;
  Obs.with_span "test.report.scraped" (fun () -> ());
  let server = Expose.start ~port:0 () in
  Fun.protect ~finally:(fun () -> Expose.stop server) @@ fun () ->
  let port = Expose.port server in
  let health = check_status (http_get port "/healthz") "HTTP/1.1 200 OK" in
  (match Suite_obs.parse_json health with
  | Json.Obj fields ->
      Alcotest.(check bool) "healthz status ok" true
        (List.assoc_opt "status" fields = Some (Json.Str "ok"));
      Alcotest.(check bool) "healthz has a version" true
        (match List.assoc_opt "version" fields with
        | Some (Json.Str v) -> v <> ""
        | _ -> false);
      Alcotest.(check bool) "healthz has uptime" true
        (match Option.bind (List.assoc_opt "uptime_s" fields) Json.to_float with
        | Some s -> s >= 0.
        | _ -> false)
  | _ -> Alcotest.fail "/healthz body is not a JSON object");
  let metrics = check_status (http_get port "/metrics") "HTTP/1.1 200 OK" in
  check_prometheus_text metrics;
  let contains sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "our counter exposed" true
    (contains "test_report_scrape_total 1" metrics);
  let trace = check_status (http_get port "/trace") "HTTP/1.1 200 OK" in
  (match Json.member "traceEvents" (Suite_obs.parse_json trace) with
  | Some (Json.List evs) ->
      Alcotest.(check bool) "trace carries the span" true
        (List.exists
           (fun ev ->
             Json.member "name" ev
             = Some (Json.Str "test.report.scraped"))
           evs)
  | _ -> Alcotest.fail "/trace body is not a trace object");
  ignore (check_status (http_get port "/nope") "HTTP/1.1 404 Not Found")

let suite =
  [
    Alcotest.test_case "fold self times" `Quick test_fold_self_times;
    Alcotest.test_case "fold GC attribution" `Quick test_fold_gc_attribution;
    Alcotest.test_case "fold parallelism and cache" `Quick
      test_fold_parallelism_and_cache;
    Alcotest.test_case "fold empty forest" `Quick test_fold_empty;
    Alcotest.test_case "text and JSON renderings" `Quick test_renderings;
    QCheck_alcotest.to_alcotest prop_self_times_telescope;
    Alcotest.test_case "expose server scrape" `Quick test_expose_scrape;
  ]
