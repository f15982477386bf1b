module Obs = Consensus_obs.Obs
module Context = Consensus_obs.Context
module Deadline = Consensus_util.Deadline

type t = {
  jobs : int;
  metrics : Metrics.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let now () = Unix.gettimeofday ()

(* Observability hooks, all gated on [Obs.enabled] (one branch when off).
   The queue-depth gauge is updated under [pool.mutex], so concurrent pools
   last-write-wins — it is a pressure indicator, not an exact ledger. *)
let queue_depth =
  Obs.Gauge.make ~help:"Tasks waiting in the engine pool queue" "engine_queue_depth"

let queue_wait =
  Obs.Histogram.make
    ~help:"Seconds between chunk submission and execution start"
    "engine_queue_wait_seconds"

let note_queue_depth pool =
  if Obs.enabled () then
    Obs.Gauge.set queue_depth (float_of_int (Queue.length pool.queue))

(* Live worker-domain count across every pool in the process, exported as
   the [ocaml_domains_active] gauge.  Refreshed by a scrape hook rather
   than on create/shutdown so the gauge is correct even for pools built
   while the metrics subsystem was disabled. *)
let live_workers = Atomic.make 0

let domains_active =
  Obs.Gauge.make ~help:"Live engine worker domains across all pools"
    "ocaml_domains_active"

let () =
  Obs.on_scrape (fun () ->
      Obs.Gauge.set domains_active (float_of_int (Atomic.get live_workers)))

(* Workers drain the queue even after [closed] is set, so every submitted
   task completes before [shutdown] returns. *)
let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.closed do
      Condition.wait pool.work_available pool.mutex
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.mutex
    else begin
      let task = Queue.pop pool.queue in
      note_queue_depth pool;
      Mutex.unlock pool.mutex;
      (* A raising task must not kill the worker: the tasks queued behind it
         would never be popped and the queue-depth gauge would stay pinned
         above zero.  Exception propagation is owned by the task wrappers
         (Task.run and run_chunks capture and re-raise at the submission
         site); anything escaping here has nowhere better to go. *)
      (try task () with _ -> ());
      loop ()
    end
  in
  loop ()

let create ?metrics ?(jobs = 0) () =
  if jobs < 0 then invalid_arg "Pool.create: jobs must be >= 0";
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  let pool =
    {
      jobs;
      metrics = (match metrics with Some m -> m | None -> Metrics.create ());
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  ignore (Atomic.fetch_and_add live_workers (List.length pool.workers));
  pool

let jobs pool = pool.jobs
let metrics pool = pool.metrics

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  let workers = pool.workers in
  pool.workers <- [];
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers;
  ignore (Atomic.fetch_and_add live_workers (-List.length workers))

let with_pool ?jobs f =
  let pool = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ---------- global pool ---------- *)

let global_mutex = Mutex.create ()
let global_pool = ref None
let global_jobs = ref 0

let get_global () =
  Mutex.lock global_mutex;
  let pool =
    match !global_pool with
    | Some p when not p.closed -> p
    | _ ->
        let p = create ~jobs:!global_jobs () in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_mutex;
  pool

let set_global_jobs jobs =
  if jobs < 0 then invalid_arg "Pool.set_global_jobs: jobs must be >= 0";
  Mutex.lock global_mutex;
  let previous = !global_pool in
  global_pool := None;
  global_jobs := jobs;
  Mutex.unlock global_mutex;
  Option.iter shutdown previous

let resolve = function Some pool -> pool | None -> get_global ()

(* ---------- submission ---------- *)

(* A closed pool accepts work but runs it inline in the calling domain: a
   caller that resolved the global pool just before a concurrent
   [set_global_jobs] retired it must still make progress (the workers are
   gone, so queueing would hang; raising would turn a benign race into a
   crash). *)
let enqueue pool tasks =
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    List.iter (fun t -> t ()) tasks
  end
  else begin
    List.iter (fun t -> Queue.push t pool.queue) tasks;
    note_queue_depth pool;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex
  end

let submit pool f =
  let task = Task.create () in
  if pool.jobs = 1 then Task.run task f
  else enqueue pool [ (fun () -> Task.run task f) ];
  task

let try_pop pool =
  Mutex.lock pool.mutex;
  let task = if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue) in
  if task <> None then note_queue_depth pool;
  Mutex.unlock pool.mutex;
  task

(* Run the chunk bodies to completion on the pool: enqueue all of them, let
   the calling domain help drain the (shared) queue, then wait for the last
   chunk.  The first chunk exception cancels the not-yet-started chunks and
   is re-raised here. *)
let run_chunks pool ~stage ~tasks bodies =
  let t0 = now () in
  (* The submitting request's cancellation token travels with its chunks:
     whichever domain executes a chunk (worker, submitter, or a concurrent
     submitter helping drain the shared queue) re-installs the token as its
     ambient token for the chunk's duration and checks it first, so an
     expired request fails fast instead of finishing its remaining chunks.
     The trace context travels the same way, so spans recorded inside a
     chunk attribute to the request that submitted it — including [None],
     which must displace the executing domain's own context. *)
  let ctx = Deadline.current () in
  let octx = Context.current () in
  let nchunks = Array.length bodies in
  let latch = Mutex.create () in
  let all_done = Condition.create () in
  let remaining = ref nchunks in
  let failure = ref None in
  let caller = Domain.self () in
  let by_caller = Atomic.make 0 in
  let run_body body =
    (* Chunk-level observability: how long the chunk sat in the queue, and a
       span covering its execution, labelled with the stage. *)
    if Obs.enabled () then begin
      Obs.Histogram.observe queue_wait (now () -. t0);
      Obs.with_span
        ~attrs:(fun () -> [ ("stage", Obs.Str stage) ])
        "engine.chunk" body
    end
    else body ()
  in
  let wrap body () =
    (match !failure with
    | Some _ -> () (* fail fast: skip bodies scheduled after a failure *)
    | None -> (
        try
          Context.with_current_opt octx (fun () ->
              Deadline.with_current ctx (fun () ->
                  Deadline.check ctx;
                  run_body body))
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock latch;
          if !failure = None then failure := Some (e, bt);
          Mutex.unlock latch));
    if Domain.self () = caller then Atomic.incr by_caller;
    Mutex.lock latch;
    decr remaining;
    if !remaining = 0 then Condition.broadcast all_done;
    Mutex.unlock latch
  in
  enqueue pool (Array.to_list (Array.map wrap bodies));
  (* Help execute queued chunks (ours or a concurrent call's) until the
     queue is empty, then wait for our stragglers. *)
  let rec help () =
    match try_pop pool with
    | Some task ->
        task ();
        help ()
    | None -> ()
  in
  help ();
  Mutex.lock latch;
  while !remaining > 0 do
    Condition.wait all_done latch
  done;
  Mutex.unlock latch;
  let by_caller = Atomic.get by_caller in
  Metrics.record pool.metrics ~stage ~tasks ~chunks:nchunks ~seq:false
    ~by_caller ~by_worker:(nchunks - by_caller) ~wall:(now () -. t0);
  match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ---------- combinators ---------- *)

let sequential pool ~stage ~tasks bodies =
  let t0 = now () in
  let ctx = Deadline.current () in
  let finish () =
    Metrics.record pool.metrics ~stage ~tasks ~chunks:(Array.length bodies)
      ~seq:true ~by_caller:(Array.length bodies) ~by_worker:0
      ~wall:(now () -. t0)
  in
  (try
     Array.iter
       (fun body ->
         Deadline.check ctx;
         body ())
       bodies
   with e ->
     finish ();
     raise e);
  finish ()

let run_bodies pool ~stage ~tasks bodies =
  let seq = pool.jobs = 1 || Array.length bodies <= 1 in
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("stage", Obs.Str stage);
        ("tasks", Obs.Int tasks);
        ("chunks", Obs.Int (Array.length bodies));
        ("jobs", Obs.Int pool.jobs);
        ("sequential", Obs.Bool seq);
      ])
    "engine.parallel"
    (fun () ->
      if seq then sequential pool ~stage ~tasks bodies
      else run_chunks pool ~stage ~tasks bodies)

(* Index 0 is computed up front (it seeds the output array), so [n] items
   make [n - 1] bodies, one per index, and two items or fewer run
   sequentially. *)
let parallel_init ?pool ?(stage = "init") n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative size";
  let pool = resolve pool in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    let bodies = Array.init (n - 1) (fun i () -> out.(i + 1) <- f (i + 1)) in
    run_bodies pool ~stage ~tasks:n bodies;
    out
  end

let parallel_map ?pool ?(stage = "map") f a =
  parallel_init ?pool ~stage (Array.length a) (fun i -> f a.(i))
