(* Observability tests: the global switch, span nesting and ordering,
   histogram bucket boundaries, concurrent recording from pool workers, the
   property that exported trace JSON parses (with {!Consensus_util.Json})
   into events with monotone timestamps and non-negative durations, the
   structured log ring, and the Runtime_events GC-pause consumer. *)

module Obs = Consensus_obs.Obs
module Context = Consensus_obs.Context
module Log = Consensus_obs.Log
module Json = Consensus_util.Json
module Pool = Consensus_engine.Pool
module Runtime = Consensus_obs.Runtime

(* Every test toggles the global switch; always restore the disabled default
   and drop recorded data so later suites see a clean slate. *)
let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* Parse emitter output, failing the test on malformed JSON. *)
let parse_json s =
  match Json.of_string s with
  | Ok j -> j
  | Error msg -> Alcotest.failf "malformed JSON: %s" msg

let member = Json.member

let trace_events () =
  match member "traceEvents" (parse_json (Obs.trace_json ())) with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "trace JSON has no traceEvents array"

(* ---------- switch ---------- *)

let test_disabled_is_inert () =
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.Counter.make "test_obs_inert_total" in
  let h = Obs.Histogram.make "test_obs_inert_seconds" in
  let r = Obs.with_span "test.obs.off" (fun () -> 41 + 1) in
  Obs.Counter.incr c;
  Obs.Histogram.observe h 1.;
  Alcotest.(check int) "thunk result" 42 r;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Histogram.count h)

(* ---------- spans ---------- *)

let test_span_nesting () =
  with_obs @@ fun () ->
  Obs.with_span "test.obs.outer" (fun () ->
      Obs.with_span "test.obs.inner_a" (fun () -> ());
      Obs.with_span
        ~attrs:(fun () -> [ ("k", Obs.Int 7) ])
        "test.obs.inner_b"
        (fun () -> ()));
  let spans = Obs.spans () in
  Alcotest.(check (list string))
    "parent first, children in start order"
    [ "test.obs.outer"; "test.obs.inner_a"; "test.obs.inner_b" ]
    (List.map (fun s -> s.Obs.span_name) spans);
  let outer = List.nth spans 0 in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.Obs.span_name ^ " dur >= 0") true (s.Obs.span_dur >= 0.);
      Alcotest.(check bool)
        (s.Obs.span_name ^ " starts within parent")
        true
        (s.Obs.span_ts >= outer.Obs.span_ts);
      Alcotest.(check bool)
        (s.Obs.span_name ^ " ends within parent")
        true
        (s.Obs.span_ts +. s.Obs.span_dur
        <= outer.Obs.span_ts +. outer.Obs.span_dur +. 1e-9))
    (List.tl spans);
  match List.nth spans 2 with
  | { Obs.span_attrs = [ ("k", Obs.Int 7) ]; _ } -> ()
  | _ -> Alcotest.fail "inner_b attrs not recorded"

let test_span_records_on_raise () =
  with_obs @@ fun () ->
  (try Obs.with_span "test.obs.raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check (list string))
    "span recorded despite raise" [ "test.obs.raises" ]
    (List.map (fun s -> s.Obs.span_name) (Obs.spans ()))

(* A reset while a span is open must drop that span: its close belongs to a
   dead generation and would otherwise resurrect pre-reset data (or record a
   span with no surviving parent). *)
let test_reset_during_span () =
  with_obs @@ fun () ->
  Obs.with_span "test.obs.stale" (fun () ->
      Obs.with_span "test.obs.closed_before" (fun () -> ());
      Obs.reset ());
  Alcotest.(check int) "close after reset records nothing" 0
    (List.length (Obs.spans ()));
  (* Recording resumes normally for spans opened after the reset. *)
  Obs.with_span "test.obs.fresh" (fun () -> ());
  Alcotest.(check (list string))
    "new generation records" [ "test.obs.fresh" ]
    (List.map (fun s -> s.Obs.span_name) (Obs.spans ()))

let test_gc_delta () =
  with_obs @@ fun () ->
  Obs.with_span "test.obs.alloc" (fun () ->
      ignore (Sys.opaque_identity (Array.init 10_000 (fun i -> float_of_int i))));
  match Obs.spans () with
  | [ { Obs.span_gc = g; _ } ] ->
      Alcotest.(check bool) "minor words counted" true (g.Obs.gc_minor_words > 0.);
      Alcotest.(check bool) "collections non-negative" true
        (g.Obs.gc_minor_collections >= 0 && g.Obs.gc_major_collections >= 0)
  | spans -> Alcotest.failf "expected one span, got %d" (List.length spans)

(* ---------- metrics ---------- *)

let test_counter_and_gauge () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test_obs_counter_total" in
  let g = Obs.Gauge.make "test_obs_gauge" in
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 0.5;
  Alcotest.(check int) "counter" 5 (Obs.Counter.value c);
  Alcotest.(check (float 1e-12)) "gauge" 3. (Obs.Gauge.value g);
  let again = Obs.Counter.make "test_obs_counter_total" in
  Obs.Counter.incr again;
  Alcotest.(check int) "make is idempotent per name" 6 (Obs.Counter.value c);
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument
       "Obs: metric test_obs_counter_total already registered with another type")
    (fun () -> ignore (Obs.Gauge.make "test_obs_counter_total"))

let test_histogram_buckets () =
  Alcotest.(check int) "26 default bounds" 26 (Array.length Obs.Histogram.default_buckets);
  Array.iteri
    (fun i b ->
      if i > 0 then
        Alcotest.(check bool) "defaults strictly increasing" true
          (Obs.Histogram.default_buckets.(i - 1) < b))
    Obs.Histogram.default_buckets;
  with_obs @@ fun () ->
  let h = Obs.Histogram.make ~buckets:[| 1.; 2.; 4. |] "test_obs_hist_seconds" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 3.0; 100. ];
  (* le is an inclusive upper bound: 1.0 lands in le=1, 2.0 in le=2. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative bucket counts"
    [ (1., 2); (2., 4); (4., 5); (infinity, 6) ]
    (Array.to_list (Obs.Histogram.buckets h));
  Alcotest.(check int) "count" 6 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 108. (Obs.Histogram.sum h);
  let text = Obs.metrics_text () in
  let contains sub =
    let sn = String.length sub and tn = String.length text in
    let rec go i = i + sn <= tn && (String.sub text i sn = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "TYPE line" true (contains "# TYPE test_obs_hist_seconds histogram");
  Alcotest.(check bool) "+Inf bucket" true
    (contains "test_obs_hist_seconds_bucket{le=\"+Inf\"} 6");
  Alcotest.(check bool) "count line" true (contains "test_obs_hist_seconds_count 6")

(* ---------- concurrent recording ---------- *)

let test_concurrent_recording () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test_obs_worker_total" in
  Pool.with_pool ~jobs:4 (fun pool ->
      let r =
        Pool.parallel_init ~pool ~stage:"obs_test" 64 (fun i ->
            Obs.with_span
              ~attrs:(fun () -> [ ("i", Obs.Int i) ])
              "test.obs.worker"
              (fun () ->
                Obs.Counter.incr c;
                i * i))
      in
      Alcotest.(check int) "results intact" (63 * 63) r.(63));
  Alcotest.(check int) "one increment per task" 64 (Obs.Counter.value c);
  let workers =
    Obs.spans () |> List.filter (fun s -> s.Obs.span_name = "test.obs.worker")
  in
  Alcotest.(check int) "one span per task" 64 (List.length workers);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.Obs.span_attrs with
      | [ ("i", Obs.Int i) ] -> Hashtbl.replace seen i ()
      | _ -> Alcotest.fail "worker span lost its attrs")
    workers;
  Alcotest.(check int) "all indices recorded" 64 (Hashtbl.length seen)

(* ---------- exported JSON ---------- *)

let check_monotone_events evs =
  let last = ref neg_infinity in
  List.iter
    (fun ev ->
      let num what =
        match Option.bind (member what ev) Json.to_float with
        | Some f -> f
        | _ -> Alcotest.fail ("event missing " ^ what)
      in
      let ts = num "ts" and dur = num "dur" in
      Alcotest.(check bool) "dur >= 0" true (dur >= 0.);
      Alcotest.(check bool) "ts monotone" true (ts >= !last);
      last := ts;
      match member "ph" ev with
      | Some (Json.Str "X") -> ()
      | _ -> Alcotest.fail "event is not a complete event")
    evs

let test_trace_json_roundtrip () =
  with_obs @@ fun () ->
  Obs.with_span
    ~attrs:(fun () -> [ ("path", Obs.Str "a\"b\\c\nd") ])
    "test.obs.escape\twins"
    (fun () -> Obs.with_span "test.obs.child" (fun () -> ()));
  let evs = trace_events () in
  Alcotest.(check int) "both spans exported" 2 (List.length evs);
  check_monotone_events evs;
  let names =
    List.filter_map (fun ev -> match member "name" ev with Some (Json.Str s) -> Some s | _ -> None) evs
  in
  Alcotest.(check bool) "escaped name survives" true
    (List.mem "test.obs.escape\twins" names);
  (* args also carries the span's gc_* fields; the attribute must survive
     among them. *)
  match member "args" (List.hd evs) with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt "path" fields with
      | Some (Json.Str "a\"b\\c\nd") -> ()
      | _ -> Alcotest.fail "escaped attribute did not round-trip")
  | _ -> Alcotest.fail "span lost its args object"

let test_metrics_json_parses () =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test_obs_json_seconds" in
  Obs.Histogram.observe h 3e-6;
  (match parse_json (Obs.metrics_json ()) with
  | Json.Obj fields ->
      Alcotest.(check bool) "has our histogram" true
        (List.mem_assoc "test_obs_json_seconds" fields)
  | _ -> Alcotest.fail "metrics JSON is not an object")

(* Property: whatever gets recorded — arbitrary names and attribute strings —
   the exported trace parses and its events are monotone with non-negative
   durations. *)
let prop_trace_parses =
  QCheck.Test.make ~count:50 ~name:"trace JSON parses, monotone, dur >= 0"
    QCheck.(list_of_size Gen.(0 -- 8) (pair printable_string printable_string))
    (fun pairs ->
      Obs.reset ();
      Obs.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.set_enabled false;
          Obs.reset ())
        (fun () ->
          List.iter
            (fun (name, attr) ->
              Obs.with_span
                ~attrs:(fun () -> [ ("v", Obs.Str attr) ])
                ("test.obs.q." ^ name)
                (fun () -> ()))
            pairs;
          let evs = trace_events () in
          check_monotone_events evs;
          List.length evs = List.length pairs))

(* ---------- trace context ---------- *)

let test_context_ambient () =
  let a = Context.fresh () and b = Context.fresh ~label:"probe" () in
  Alcotest.(check bool) "ids unique" true (Context.id a <> Context.id b);
  Alcotest.(check (option string)) "label kept" (Some "probe") (Context.label b);
  Alcotest.(check (option string)) "no ambient by default" None
    (Context.current_id ());
  Context.with_current a (fun () ->
      Alcotest.(check (option string))
        "installed" (Some (Context.id a))
        (Context.current_id ());
      (* [None] must clear the ambient: a domain executing a contextless
         submitter's chunk must not attribute it to its own request. *)
      Context.with_current_opt None (fun () ->
          Alcotest.(check (option string)) "None clears" None
            (Context.current_id ()));
      Alcotest.(check (option string))
        "restored after inner" (Some (Context.id a))
        (Context.current_id ()));
  Alcotest.(check (option string)) "restored" None (Context.current_id ())

let test_span_request_tagging () =
  with_obs @@ fun () ->
  let ctx = Context.fresh () in
  Obs.with_span "test.obs.untagged" (fun () -> ());
  Context.with_current ctx (fun () ->
      Obs.with_span "test.obs.tagged" (fun () ->
          Obs.with_span "test.obs.tagged.child" (fun () -> ())));
  let tagged = Obs.request_spans (Context.id ctx) in
  Alcotest.(check int) "two tagged spans" 2 (List.length tagged);
  let span_ids =
    List.map
      (fun s ->
        match List.assoc_opt "span" s.Obs.span_attrs with
        | Some (Obs.Int n) -> n
        | _ -> Alcotest.failf "%s lost its span-id attr" s.Obs.span_name)
      tagged
  in
  Alcotest.(check (list int))
    "per-request span ids count from 0" [ 0; 1 ]
    (List.sort compare span_ids);
  let untagged =
    Obs.spans () |> List.filter (fun s -> s.Obs.span_request = None)
  in
  Alcotest.(check (list string))
    "contextless span stays untagged" [ "test.obs.untagged" ]
    (List.map (fun s -> s.Obs.span_name) untagged)

(* The engine pool captures the submitting domain's ambient context and
   re-installs it around every parallel chunk: chunk spans executed on
   worker domains must carry the submitting request's id. *)
let test_context_crosses_pool () =
  with_obs @@ fun () ->
  let ctx = Context.fresh () in
  Pool.with_pool ~jobs:4 (fun pool ->
      Context.with_current ctx (fun () ->
          ignore (Pool.parallel_init ~pool ~stage:"ctx_test" 32 (fun i -> i))));
  let chunks =
    Obs.spans () |> List.filter (fun s -> s.Obs.span_name = "engine.chunk")
  in
  Alcotest.(check bool) "several chunks recorded" true (List.length chunks > 1);
  List.iter
    (fun s ->
      Alcotest.(check (option string))
        "chunk tagged with the submitting request" (Some (Context.id ctx))
        s.Obs.span_request)
    chunks

let test_trace_limit () =
  with_obs @@ fun () ->
  for i = 0 to 4 do
    Obs.with_span (Printf.sprintf "test.obs.lim%d" i) (fun () -> ())
  done;
  let evs_of json =
    match member "traceEvents" (parse_json json) with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  Alcotest.(check int) "unlimited export" 5
    (List.length (evs_of (Obs.trace_json ())));
  let limited = evs_of (Obs.trace_json ~limit:2 ()) in
  check_monotone_events limited;
  let names =
    List.filter_map
      (fun ev ->
        match member "name" ev with Some (Json.Str s) -> Some s | _ -> None)
      limited
  in
  Alcotest.(check (list string))
    "newest spans kept, still ascending"
    [ "test.obs.lim3"; "test.obs.lim4" ]
    names;
  Alcotest.(check int) "limit 0 keeps nothing" 0
    (List.length (evs_of (Obs.trace_json ~limit:0 ())))

(* A long-lived process records far more spans than a domain retains:
   each domain keeps exactly its newest [max_events_per_domain]. *)
let test_span_retention_bound () =
  with_obs @@ fun () ->
  let bound = Obs.max_events_per_domain in
  let n = bound + (bound / 2) + 3 in
  let record () =
    for i = 1 to n do
      Obs.with_span ~attrs:(fun () -> [ ("i", Obs.Int i) ]) "test.obs.retain"
        ignore
    done
  in
  record ();
  Domain.join (Domain.spawn record);
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      let i =
        match List.assoc_opt "i" s.Obs.span_attrs with
        | Some (Obs.Int i) -> i
        | _ -> Alcotest.fail "span lost its attribute"
      in
      let count, newest =
        Option.value (Hashtbl.find_opt by_tid s.Obs.span_tid) ~default:(0, 0)
      in
      Hashtbl.replace by_tid s.Obs.span_tid (count + 1, max newest i))
    (Obs.spans ());
  Alcotest.(check int) "two recording domains" 2 (Hashtbl.length by_tid);
  Hashtbl.iter
    (fun _ (count, newest) ->
      Alcotest.(check int) "exactly the bound retained" bound count;
      Alcotest.(check int) "newest span kept" n newest)
    by_tid

let test_histogram_exemplars () =
  with_obs @@ fun () ->
  let h =
    Obs.Histogram.make ~buckets:[| 1.; 10. |] "test_obs_exemplar_seconds"
  in
  Obs.Histogram.observe h 0.5;
  Obs.Histogram.observe ~exemplar:"req-000123" h 0.25;
  Obs.Histogram.observe ~exemplar:"req-000124" h 5.;
  let ex = Obs.Histogram.exemplars h in
  Alcotest.(check int) "one cell per bucket (incl. +Inf)" 3 (Array.length ex);
  (match ex.(0) with
  | _, Some (id, v) ->
      Alcotest.(check string) "latest labelled sample wins" "req-000123" id;
      Alcotest.(check (float 1e-12)) "exemplar value" 0.25 v
  | _ -> Alcotest.fail "first bucket lost its exemplar");
  (match ex.(1) with
  | _, Some (id, _) -> Alcotest.(check string) "second bucket" "req-000124" id
  | _ -> Alcotest.fail "second bucket lost its exemplar");
  (match ex.(2) with
  | _, None -> ()
  | _ -> Alcotest.fail "+Inf bucket has a spurious exemplar");
  let text = Obs.metrics_text () in
  let contains sub =
    let sn = String.length sub and tn = String.length text in
    let rec go i = i + sn <= tn && (String.sub text i sn = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "OpenMetrics exemplar suffix" true
    (contains
       "test_obs_exemplar_seconds_bucket{le=\"1\"} 2 # \
        {request_id=\"req-000123\"} 0.25")

(* ---------- structured log ---------- *)

let with_quiet_log f =
  Log.reset ();
  Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Log.set_stderr true;
      Log.set_level Log.Info)
    f

let test_log_levels_and_fields () =
  with_quiet_log @@ fun () ->
  Log.set_level Log.Warn;
  Log.info "test.log.filtered";
  Log.warn ~fields:(fun () -> [ ("k", Json.Int 7) ]) "test.log.kept";
  (match Log.recent () with
  | [ ev ] -> (
      Alcotest.(check string) "name" "test.log.kept" ev.Log.ev_name;
      Alcotest.(check (option string)) "no ambient request" None ev.Log.ev_request;
      match parse_json (Log.render ev) with
      | Json.Obj fields ->
          Alcotest.(check bool) "level field" true
            (List.assoc_opt "level" fields = Some (Json.Str "warn"));
          Alcotest.(check bool) "custom field" true
            (List.assoc_opt "k" fields = Some (Json.Int 7))
      | _ -> Alcotest.fail "event does not render as a JSON object")
  | evs -> Alcotest.failf "expected 1 ring event, got %d" (List.length evs));
  Log.set_level Log.Info;
  let ctx = Context.fresh () in
  Context.with_current ctx (fun () -> Log.info "test.log.ambient");
  match Log.recent ~limit:1 () with
  | [ ev ] ->
      Alcotest.(check (option string))
        "ambient request attached" (Some (Context.id ctx))
        ev.Log.ev_request
  | _ -> Alcotest.fail "ambient event not recorded"

(* Wraparound under concurrent writers: the ring must stay exactly at
   capacity, every surviving event must render as valid one-line JSON, and
   the newest-first order must hold per writer. *)
let test_log_ring_wraparound () =
  with_quiet_log @@ fun () ->
  let per_writer = 400 in
  let writers =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_writer - 1 do
              Log.info
                ~fields:(fun () -> [ ("writer", Json.Int d); ("i", Json.Int i) ])
                "test.log.wrap"
            done))
  in
  List.iter Domain.join writers;
  let events = Log.recent () in
  Alcotest.(check bool) "writers overflow the ring" true
    (4 * per_writer > Log.ring_capacity);
  Alcotest.(check int) "ring holds exactly its capacity" Log.ring_capacity
    (List.length events);
  let last_seen = Array.make 4 max_int in
  List.iter
    (fun ev ->
      match parse_json (Log.render ev) with
      | Json.Obj fields -> (
          Alcotest.(check bool) "event name survives" true
            (List.assoc_opt "event" fields = Some (Json.Str "test.log.wrap"));
          match (List.assoc_opt "writer" fields, List.assoc_opt "i" fields) with
          | Some (Json.Int w), Some (Json.Int i) ->
              Alcotest.(check bool) "newest first per writer" true
                (i < last_seen.(w));
              last_seen.(w) <- i
          | _ -> Alcotest.fail "event lost its fields")
      | _ -> Alcotest.fail "ring event does not render as a JSON object")
    events;
  Alcotest.(check int) "limit bounds the answer" 10
    (List.length (Log.recent ~limit:10 ()))

(* Racing writers with repeated ring and metrics resets: the ring must
   stay structurally sound whatever interleaving happens. *)
let test_log_ring_reset_race () =
  with_quiet_log @@ fun () ->
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

(* ---------- runtime-events GC pauses ---------- *)

(* Allocation churn with the data kept live, then a full major and a
   compaction: guaranteed top-level runtime phases on this domain's ring,
   including at least one pause long enough for the attribution ring's
   [min_attributable_pause] floor. *)
let churn_heap () =
  let keep = ref [] in
  for _ = 1 to 20 do
    keep := List.init 5000 string_of_int :: !keep;
    Gc.minor ()
  done;
  Gc.full_major ();
  Gc.compact ();
  ignore (Sys.opaque_identity !keep)

let with_runtime f =
  with_obs @@ fun () ->
  Runtime.start ();
  Fun.protect ~finally:Runtime.stop f

(* The consumer's series, looked up by name ([make] is idempotent). *)
let gc_pause_histogram () = Obs.Histogram.make "gc_pause_seconds"
let gc_pauses_total () = Obs.Counter.value (Obs.Counter.make "gc_pauses_total")

let test_runtime_pauses () =
  with_runtime @@ fun () ->
  let before = Runtime.pause_count () in
  let t0 = Unix.gettimeofday () in
  churn_heap ();
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
  Alcotest.(check bool)
    "histogram fed" true
    (Obs.Histogram.count (gc_pause_histogram ()) > 0)

(* With no background sampler, a scrape must drain the consumer itself:
   the exposition counts the pauses up to the moment it was taken. *)
let test_scrape_drains_runtime () =
  with_runtime @@ fun () ->
  let before = gc_pauses_total () in
  churn_heap ();
  Gc.full_major ();
  ignore (Obs.metrics_text ());
  Alcotest.(check bool)
    "gc_pauses_total advanced on scrape" true
    (gc_pauses_total () > before)

let suite =
  [
    Alcotest.test_case "disabled switch is inert" `Quick test_disabled_is_inert;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "span recorded on raise" `Quick test_span_records_on_raise;
    Alcotest.test_case "reset during open span" `Quick test_reset_during_span;
    Alcotest.test_case "GC deltas per span" `Quick test_gc_delta;
    Alcotest.test_case "counter and gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_histogram_buckets;
    Alcotest.test_case "concurrent recording from pool workers" `Quick
      test_concurrent_recording;
    Alcotest.test_case "trace JSON round-trips" `Quick test_trace_json_roundtrip;
    Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
    QCheck_alcotest.to_alcotest prop_trace_parses;
    Alcotest.test_case "context ambient install/restore" `Quick
      test_context_ambient;
    Alcotest.test_case "spans tagged with the ambient request" `Quick
      test_span_request_tagging;
    Alcotest.test_case "context crosses the engine pool" `Quick
      test_context_crosses_pool;
    Alcotest.test_case "trace export limit" `Quick test_trace_limit;
    Alcotest.test_case "span retention bounded per domain" `Quick
      test_span_retention_bound;
    Alcotest.test_case "histogram exemplars" `Quick test_histogram_exemplars;
    Alcotest.test_case "log levels and fields" `Quick test_log_levels_and_fields;
    Alcotest.test_case "log ring wraparound under concurrent writers" `Quick
      test_log_ring_wraparound;
    Alcotest.test_case "log ring survives resets racing writers" `Quick
      test_log_ring_reset_race;
    Alcotest.test_case "runtime-events pauses are recorded and windowed" `Quick
      test_runtime_pauses;
    Alcotest.test_case "a scrape drains the runtime-events consumer" `Quick
      test_scrape_drains_runtime;
  ]
