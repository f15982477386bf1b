module Obs = Consensus_obs.Obs
module Context = Consensus_obs.Context
module Runtime = Consensus_obs.Runtime
module Log = Consensus_obs.Log
module Json = Consensus_util.Json
module Task = Consensus_engine.Task
module Deadline = Consensus_util.Deadline

type reject = Queue_full | Shutting_down

let reject_to_string = function
  | Queue_full -> "queue full"
  | Shutting_down -> "shutting down"

(* One queued request: the result cell, the work, the deadline token and
   the trace context that travel with it (workers install both as their
   ambient state), and the admission timestamp for queue-wait
   accounting. *)
type job =
  | Job : {
      task : 'a Task.t;
      work : unit -> 'a;
      token : Deadline.t;
      ctx : Context.t option;
      admitted : float;
    }
      -> job

type stats = {
  admitted : int;
  completed : int;
  rejected_queue_full : int;
  deadline_exceeded : int;
}

type t = {
  max_inflight : int;
  max_queue : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : job Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  inflight : int Atomic.t;
  (* stats, maintained unconditionally (the bench reads them with the
     observability subsystem off) *)
  admitted_c : int Atomic.t;
  completed_c : int Atomic.t;
  rej_queue_c : int Atomic.t;
  deadline_c : int Atomic.t;
}

(* ---------- metrics (process-global names; Obs.make is idempotent) ------ *)

let m_inflight =
  Obs.Gauge.make ~help:"Requests currently evaluating in the serve scheduler"
    "serve_inflight"

let m_queue_depth =
  Obs.Gauge.make ~help:"Requests admitted and waiting in the serve queue"
    "serve_queue_depth"

let m_requests =
  Obs.Counter.make ~help:"Requests admitted by the serve scheduler"
    "serve_requests_total"

let m_rejected =
  Obs.Counter.make
    ~help:"Requests rejected at admission (queue full or shutting down)"
    "serve_rejected_total"

let m_rejected_queue =
  Obs.Counter.make ~help:"Requests rejected because the serve queue was full"
    "serve_rejected_queue_full_total"

let m_deadline =
  Obs.Counter.make ~help:"Requests that exceeded their deadline"
    "serve_deadline_exceeded_total"

let m_latency =
  Obs.Histogram.make ~help:"Admitted-request latency, admission to completion"
    "serve_request_seconds"

let note_queue_depth t =
  if Obs.enabled () then
    Obs.Gauge.set m_queue_depth (float_of_int (Queue.length t.queue))

let note_inflight t =
  if Obs.enabled () then
    Obs.Gauge.set m_inflight (float_of_int (Atomic.get t.inflight))

(* ---------- workers ---------- *)

(* Evaluation-side deadline expiry can surface as a value rather than an
   exception (Api.run_result traps [Deadline.Expired]); the front end calls
   this so the counter covers both paths. *)
let count_deadline t =
  Atomic.incr t.deadline_c;
  if Obs.enabled () then Obs.Counter.incr m_deadline

let execute t (Job { task; work; token; ctx; admitted }) =
  let t0 = Unix.gettimeofday () in
  Atomic.incr t.inflight;
  note_inflight t;
  (* Evaluate first, complete the bookkeeping, and only then fill the task:
     [Task.run] wakes the awaiting connection, which may immediately read
     {!inflight} or {!stats} — the gauge must already be back down (a failed
     request must not leak an inflight slot, nor appear leaked to an awaiter
     scheduling its next request).  The request's trace context is installed
     outside the deadline token, so even the token's own expiry check is
     attributed to the request. *)
  let outcome =
    match
      Context.with_current_opt ctx (fun () ->
          Deadline.with_current token (fun () ->
              Deadline.check token;
              work ()))
    with
    | v -> Ok v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (match e with
        | Deadline.Expired -> count_deadline t
        | _ -> ());
        Error (e, bt)
  in
  let t1 = Unix.gettimeofday () in
  (* Timings must be written before [Task.run] publishes completion: the
     awaiting front end reads them for the access log and slow capture. *)
  Option.iter
    (fun c ->
      Context.set_timings c ~queue_wait_s:(t0 -. admitted) ~run_s:(t1 -. t0);
      (* Attribute runtime (GC) pauses overlapping the run window to this
         request: drain the runtime-events ring, then sum the overlap of
         recorded pauses with [t0, t1].  Gated on one atomic load when
         the consumer is off.  Fast requests share a rate-limited drain
         (their pause windows are covered by the next drain anyway) and a
         capped overlap scan — at saturation on a small machine a
         full-ring scan per request is measurable throughput; a slow
         request drains fully and scans the whole ring so its own pauses
         are visible the moment its slow-ring entry is written. *)
      if Runtime.active () then begin
        let slow = t1 -. t0 >= 0.02 in
        if slow then Runtime.poll () else Runtime.poll_if_stale 0.2;
        let max_scan = if slow then max_int else 256 in
        Context.set_gc_pause c (Runtime.pause_s_between ~max_scan ~t0 ~t1 ())
      end)
    ctx;
  Atomic.decr t.inflight;
  note_inflight t;
  Atomic.incr t.completed_c;
  if Obs.enabled () then
    (* Admission-to-completion latency, with the request id as the bucket's
       exemplar: a p99 spike in the exposition names a request the slow
       ring can then explain. *)
    Obs.Histogram.observe
      ?exemplar:(Option.map Context.id ctx)
      m_latency (t1 -. admitted);
  Task.run task (fun () ->
      match outcome with
      | Ok v -> v
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.work_available t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let job = Queue.pop t.queue in
      note_queue_depth t;
      Mutex.unlock t.mutex;
      execute t job;
      loop ()
    end
  in
  loop ()

(* ---------- lifecycle ---------- *)

let create ~max_inflight ~max_queue () =
  if max_inflight < 1 then
    invalid_arg "Scheduler.create: max_inflight must be >= 1";
  if max_queue < 0 then invalid_arg "Scheduler.create: max_queue must be >= 0";
  let t =
    {
      max_inflight;
      max_queue;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      inflight = Atomic.make 0;
      admitted_c = Atomic.make 0;
      completed_c = Atomic.make 0;
      rej_queue_c = Atomic.make 0;
      deadline_c = Atomic.make 0;
    }
  in
  t.workers <-
    List.init max_inflight (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let reject t reason =
  if reason = Queue_full then Atomic.incr t.rej_queue_c;
  if Obs.enabled () then begin
    Obs.Counter.incr m_rejected;
    if reason = Queue_full then Obs.Counter.incr m_rejected_queue
  end;
  Error reason

let submit (type a) t ?deadline ?ctx (work : unit -> a) :
    (a Task.t, reject) result =
  Mutex.lock t.mutex;
  if t.closed then begin
    Mutex.unlock t.mutex;
    reject t Shutting_down
  end
  else if
    (* A request counts against the queue only when no worker is idle:
       [max_queue = 0] still admits up to [max_inflight] at once. *)
    Queue.length t.queue >= t.max_queue
    && Atomic.get t.inflight + Queue.length t.queue
       >= t.max_inflight + t.max_queue
  then begin
    Mutex.unlock t.mutex;
    reject t Queue_full
  end
  else begin
    let token =
      match deadline with None -> Deadline.none | Some s -> Deadline.after s
    in
    let task = Task.create () in
    Queue.push
      (Job { task; work; token; ctx; admitted = Unix.gettimeofday () })
      t.queue;
    note_queue_depth t;
    Atomic.incr t.admitted_c;
    if Obs.enabled () then Obs.Counter.incr m_requests;
    Condition.signal t.work_available;
    Mutex.unlock t.mutex;
    Ok task
  end

let run t ?deadline ?ctx work =
  match submit t ?deadline ?ctx work with
  | Error _ as e -> e
  | Ok task -> Ok (Task.await task)

(* The per-request access-log line.  Emitted by the front end once the
   request has a status, with the scheduler-recorded timings and the
   context's cache accounting; [?ctx] attribution (rather than the ambient)
   because the emitter runs on a connection thread, not the worker. *)
let log_access ctx ~route ~family ~status =
  Log.emit ~ctx Log.Info "access" (fun () ->
      [
        ("route", Json.Str route);
        ( "family",
          match family with Some f -> Json.Str f | None -> Json.Null );
        ("status", Json.Int status);
        ("queue_wait_ms", Json.Float (1000. *. Context.queue_wait_s ctx));
        ("run_ms", Json.Float (1000. *. Context.run_s ctx));
        ("gc_pause_ms", Json.Float (1000. *. Context.gc_pause_s ctx));
        ("cache_hits", Json.Int (Context.cache_hits ctx));
        ("cache_misses", Json.Int (Context.cache_misses ctx));
      ])

let inflight t = Atomic.get t.inflight
let queued t =
  Mutex.lock t.mutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.mutex;
  n

let stats t =
  {
    admitted = Atomic.get t.admitted_c;
    completed = Atomic.get t.completed_c;
    rejected_queue_full = Atomic.get t.rej_queue_c;
    deadline_exceeded = Atomic.get t.deadline_c;
  }

let shutdown t =
  Mutex.lock t.mutex;
  let workers = t.workers in
  t.closed <- true;
  t.workers <- [];
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join workers
