open Consensus_anxor
module Api = Consensus.Api
module Pool = Consensus_engine.Pool
module Task = Consensus_engine.Task
module Deadline = Consensus_util.Deadline
module Obs = Consensus_obs.Obs
module Context = Consensus_obs.Context
module Log = Consensus_obs.Log
module Report = Consensus_obs.Report
module Expose = Consensus_obs.Expose
module Json = Consensus_util.Json
module Prng = Consensus_util.Prng
module Ring = Consensus_util.Ring

type config = {
  host : string;
  port : int;
  dbs : (string * Db.t) list;
  max_inflight : int;
  max_queue : int;
  default_deadline : float option;
  max_connections : int;
  cache : bool;
  slow_threshold : float;
  slow_capacity : int;
  access_log : bool;
  log_level : Log.level;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    dbs = [];
    max_inflight = Domain.recommended_domain_count ();
    max_queue = 64;
    default_deadline = None;
    max_connections = 64;
    cache = true;
    slow_threshold = infinity;
    slow_capacity = 32;
    access_log = true;
    log_level = Log.Info;
  }

type t = {
  config : config;
  pool : Pool.t;
  sched : Scheduler.t;
  mutable server : Expose.t option;
  stopped : bool Atomic.t;
  slow : Json.t Ring.t;
}

(* ---------- request plumbing ---------- *)

exception Reply of Expose.response

let error_response ~status msg =
  Expose.response ~content_type:"application/json" ~status
    (Protocol.error_body msg)

let fail status msg = raise (Reply (error_response ~status msg))

let json_response ?(status = 200) json =
  Expose.response ~content_type:"application/json" ~status
    (Json.to_string json ^ "\n")

let lookup_db t (req : Expose.request) =
  match List.assoc_opt "db" req.query with
  | Some name -> (
      match List.assoc_opt name t.config.dbs with
      | Some db -> (name, db)
      | None -> fail 404 (Printf.sprintf "unknown database %S" name))
  | None -> (
      match t.config.dbs with
      | [ (name, db) ] -> (name, db)
      | _ -> fail 400 "db parameter required (several databases are resident)")

let int_param (req : Expose.request) name ~default =
  match List.assoc_opt name req.query with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> fail 400 (Printf.sprintf "parameter %s: not an integer: %S" name v))

let bool_param (req : Expose.request) name ~default =
  match List.assoc_opt name req.query with
  | None -> default
  | Some "true" -> true
  | Some "false" -> false
  | Some v ->
      fail 400 (Printf.sprintf "parameter %s: expected true or false, got %S" name v)

let deadline_of t (req : Expose.request) =
  match List.assoc_opt "deadline_ms" req.query with
  | None -> t.config.default_deadline
  | Some v -> (
      match int_of_string_opt v with
      | Some ms when ms > 0 -> Some (float_of_int ms /. 1000.)
      | _ -> fail 400 (Printf.sprintf "parameter deadline_ms: must be a positive integer, got %S" v))

(* Submit to the scheduler and await, translating rejects and queue-side
   deadline expiry to their statuses.  Evaluation-side errors come back as
   values (Api.run_result). *)
let schedule t ?deadline ?ctx work =
  match Scheduler.submit t.sched ?deadline ?ctx work with
  | Error reason ->
      fail (Protocol.status_of_reject reason) (Scheduler.reject_to_string reason)
  | Ok task -> (
      try Task.await task
      with Deadline.Expired -> fail 504 "deadline exceeded")

(* ---------- per-request epilogue: access log and slow capture ---------- *)

(* Fold the request's spans (tagged by the ambient context the scheduler
   worker installed) into an explain profile. *)
let profile_of ctx =
  Report.to_obj (Report.of_spans (Obs.request_spans (Context.id ctx)))

let timing_fields ctx =
  [
    ("queue_wait_ms", Json.Float (1000. *. Context.queue_wait_s ctx));
    ("run_ms", Json.Float (1000. *. Context.run_s ctx));
    ("gc_pause_ms", Json.Float (1000. *. Context.gc_pause_s ctx));
    ("cache_hits", Json.Int (Context.cache_hits ctx));
    ("cache_misses", Json.Int (Context.cache_misses ctx));
  ]

(* Run once per request on the connection thread, after the response status
   is known: emit the access-log line, and — when the request's wall time
   (queue wait + run) reached [slow_threshold], or the client asked for an
   inline explain — fold its spans into a profile.  Slow requests keep the
   profile in the bounded ring behind [GET /debug/slow]; the returned
   profile (if any) is embedded in the response.  Both consumers read the
   same context cells the scheduler and cache wrote, so the access log, the
   slow entry and the inline profile agree on timings and cache traffic. *)
let finish_request t ctx ~route ~family ~status ~explain =
  let wall = Context.queue_wait_s ctx +. Context.run_s ctx in
  let slow = wall >= t.config.slow_threshold in
  let profile = if slow || explain then Some (profile_of ctx) else None in
  (match (slow, profile) with
  | true, Some p ->
      let entry =
        Json.Obj
          ([
             ("request", Json.Str (Context.id ctx));
             ("route", Json.Str route);
             ( "family",
               match family with Some f -> Json.Str f | None -> Json.Null );
             ("status", Json.Int status);
           ]
          @ timing_fields ctx
          @ [ ("profile", p) ])
      in
      Ring.push t.slow entry
  | _ -> ());
  if t.config.access_log then Scheduler.log_access ctx ~route ~family ~status;
  profile

(* Wrap a request body that already has a context: produce the response,
   then run the epilogue with the final status — including on the [Reply]
   escape path, so rejected and expired requests still hit the access log
   and the slow ring. *)
let with_epilogue t ctx ~route ~family ~explain run =
  match run () with
  | status, render ->
      let profile = finish_request t ctx ~route ~family ~status ~explain in
      json_response ~status (render profile)
  | exception Reply resp ->
      ignore
        (finish_request t ctx ~route ~family ~status:resp.Expose.status ~explain);
      raise (Reply resp)

let serve_query t (req : Expose.request) =
  let db_name, db = lookup_db t req in
  let deadline = deadline_of t req in
  let seed = int_param req "seed" ~default:42 in
  let cache = bool_param req "cache" ~default:true in
  let explain = bool_param req "explain" ~default:false in
  let label = List.assoc_opt "label" req.query in
  let query =
    match Protocol.parse_query_body req.body with
    | Ok q -> q
    | Error msg -> fail 400 msg
  in
  let ctx = Context.fresh ?label () in
  with_epilogue t ctx ~route:"/query"
    ~family:(Some (Api.query_name query))
    ~explain
    (fun () ->
      let work () =
        let options =
          Api.Options.make ~pool:t.pool ~rng:(Prng.create ~seed ()) ~cache
            ?label ()
        in
        let t0 = Unix.gettimeofday () in
        let result = Api.run_result ~options db query in
        (result, Unix.gettimeofday () -. t0)
      in
      let result, elapsed = schedule t ?deadline ~ctx work in
      (match result with
      | Error Api.Error.Deadline_exceeded -> Scheduler.count_deadline t.sched
      | _ -> ());
      let status =
        match result with Ok _ -> 200 | Error e -> Protocol.status_of_error e
      in
      ( status,
        fun profile ->
          Protocol.result_json ~request:(Context.id ctx) ?profile ~db_name
            ~query ~elapsed ~db result ))

let serve_batch t (req : Expose.request) =
  let db_name, db = lookup_db t req in
  let deadline = deadline_of t req in
  let seed = int_param req "seed" ~default:42 in
  let cache = bool_param req "cache" ~default:true in
  let label = List.assoc_opt "label" req.query in
  let queries =
    match Protocol.parse_batch_body req.body with
    | Ok qs -> qs
    | Error msg -> fail 400 msg
  in
  let ctx = Context.fresh ?label () in
  with_epilogue t ctx ~route:"/batch" ~family:None ~explain:false (fun () ->
      (* The whole batch occupies one scheduler slot and runs under one
         deadline; queries evaluate in order with per-query rng seeds
         [seed + i], exactly like CLI batch, so a served batch and a local
         one agree answer for answer. *)
      let work () =
        List.mapi
          (fun i query ->
            let options =
              Api.Options.make ~pool:t.pool
                ~rng:(Prng.create ~seed:(seed + i) ())
                ~cache ?label ()
            in
            let t0 = Unix.gettimeofday () in
            let result = Api.run_result ~options db query in
            (query, result, Unix.gettimeofday () -. t0))
          queries
      in
      let results = schedule t ?deadline ~ctx work in
      List.iter
        (fun (_, result, _) ->
          match result with
          | Error Api.Error.Deadline_exceeded -> Scheduler.count_deadline t.sched
          | _ -> ())
        results;
      ( 200,
        fun _profile ->
          Json.Obj
            [
              ("request", Json.Str (Context.id ctx));
              ("db", Json.Str db_name);
              ( "results",
                Json.List
                  (List.map
                     (fun (query, result, elapsed) ->
                       Protocol.result_json ~db_name ~query ~elapsed ~db result)
                     results) );
            ] ))

let serve_dbs t =
  json_response
    (Json.Obj
       [
         ( "dbs",
           Json.List
             (List.map
                (fun (name, db) ->
                  Json.Obj
                    [
                      ("name", Json.Str name);
                      ("keys", Json.Int (Db.num_keys db));
                      ("independent", Json.Bool (Db.is_independent db));
                    ])
                t.config.dbs) );
       ])

(* The Expose payload plus load, its bound and the resident databases, so
   one probe answers "is it up and what is it serving". *)
let serve_healthz t =
  Expose.healthz
    [
      ("inflight", Json.Int (Scheduler.inflight t.sched));
      ("max_inflight", Json.Int t.config.max_inflight);
      ("queue_depth", Json.Int (Scheduler.queued t.sched));
      ("dbs", Json.List (List.map (fun (name, _) -> Json.Str name) t.config.dbs));
    ]

let limit_param req =
  let limit = int_param req "limit" ~default:max_int in
  if limit < 0 then fail 400 "parameter limit: must be >= 0";
  limit

let serve_slow t (req : Expose.request) =
  let limit = limit_param req in
  let entries = List.rev (Ring.fold ~limit t.slow (fun acc e -> e :: acc) []) in
  json_response (Json.Obj [ ("slow", Json.List entries) ])

let serve_log (req : Expose.request) =
  let limit = limit_param req in
  let events = Log.recent ~limit () in
  json_response
    (Json.Obj [ ("events", Json.List (List.map Log.event_json events)) ])

(* Response/error volume counters: a scraper's error-rate inputs
   ([rate(serve_errors_total[1h]) / rate(serve_responses_total[1h])]).
   Counted where every handler response funnels through, so 4xx rejections
   and 5xx failures are both visible. *)
let m_responses =
  Obs.Counter.make ~help:"Responses produced by the daemon handler"
    "serve_responses_total"

let m_errors =
  Obs.Counter.make ~help:"Error (5xx) responses produced by the daemon handler"
    "serve_errors_total"

let handler t (req : Expose.request) =
  let route () =
    match (req.meth, req.path) with
    | "POST", "/query" -> Some (serve_query t req)
    | "POST", "/batch" -> Some (serve_batch t req)
    | "GET", "/dbs" -> Some (serve_dbs t)
    | "GET", "/healthz" -> Some (serve_healthz t)
    | "GET", "/debug/slow" -> Some (serve_slow t req)
    | "GET", "/debug/log" -> Some (serve_log req)
    | _, ("/query" | "/batch" | "/dbs" | "/healthz" | "/debug/slow" | "/debug/log")
      ->
        Some (error_response ~status:405 "method not allowed")
    | _ -> None
  in
  let resp = try route () with Reply resp -> Some resp in
  (match resp with
  | Some r ->
      Obs.Counter.incr m_responses;
      if r.Expose.status >= 500 then Obs.Counter.incr m_errors
  | None -> ());
  resp

(* ---------- lifecycle ---------- *)

let validate config =
  if config.dbs = [] then invalid_arg "Daemon.start: no resident databases";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, _) ->
      if name = "" then invalid_arg "Daemon.start: empty database name";
      if Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "Daemon.start: duplicate database name %S" name);
      Hashtbl.add seen name ())
    config.dbs;
  if config.slow_capacity < 1 then
    invalid_arg "Daemon.start: slow_capacity must be >= 1"

let start config =
  validate config;
  (* The service contract includes /metrics: observability is always on
     here. *)
  Obs.set_enabled true;
  Log.set_level config.log_level;
  if config.cache then Consensus_cache.Cache.set_enabled true;
  let sched =
    Scheduler.create ~max_inflight:config.max_inflight
      ~max_queue:config.max_queue ()
  in
  let t =
    {
      config;
      (* The request is the daemon's one level of parallelism: each
         scheduler worker runs its request's kernels inline.  A [jobs = 1]
         pool spawns no domain, so it needs no shutdown, and still checks
         the deadline before every body ([None] would resolve to the
         auto-sized global pool). *)
      pool = Pool.create ~jobs:1 ();
      sched;
      server = None;
      stopped = Atomic.make false;
      slow = Ring.create config.slow_capacity Json.Null;
    }
  in
  (try
     (* Backlog scales with the connection cap so a thundering herd of
        clients queues in the kernel instead of retransmitting SYNs. *)
     t.server <-
       Some
         (Expose.start ~host:config.host
            ~backlog:(max 128 (4 * config.max_connections))
            ~max_connections:config.max_connections
            ~handler:(handler t) ~port:config.port ())
   with e ->
     Scheduler.shutdown sched;
     raise e);
  t

let port t = match t.server with Some s -> Expose.port s | None -> t.config.port
let scheduler t = t.sched

let wait_quit t =
  match t.server with Some s -> Expose.wait_quit s | None -> ()

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    (* Order matters: the front end drains its connection threads first
       (they may be awaiting scheduler tasks, so the scheduler must still
       be alive), then the scheduler finishes admitted requests. *)
    Option.iter Expose.stop t.server;
    Scheduler.shutdown t.sched
  end
