(** Request scheduler: admission control, bounded queueing and deadline
    enforcement between the HTTP front end and the kernels.

    A scheduler owns [max_inflight] dedicated worker domains, each
    evaluating one admitted request at a time, start to finish: the
    request is the unit of parallelism, and its kernels run inline on the
    worker that picked it up.  Worker domains — not systhreads — matter: the
    ambient {!Consensus_util.Deadline} token lives in domain-local
    storage, so each request's token is installed for exactly the worker
    evaluating it.

    Admission happens in {!submit}, in order:

    + a shut-down scheduler rejects with [Shutting_down];
    + a full bounded queue ([max_queue] waiting requests) rejects with
      [Queue_full] — the front end's backpressure signal (HTTP 429).

    Admitted requests carry an optional deadline.  The worker installs the
    request's token as its ambient deadline, so the cooperative checks in
    the engine combinators and the sequential kernels abort expired work
    with {!Consensus_util.Deadline.Expired}; requests whose deadline passes
    while still queued fail the same way without running at all.

    Requests may also carry a {!Consensus_obs.Context} trace context: the
    worker installs it alongside the deadline token, so every span the
    evaluation records is tagged with the request id, and the scheduler
    writes queue-wait / run timings into the context for the front end's
    access log and slow-query capture.

    Metrics (when the observability subsystem is enabled):
    [serve_inflight], [serve_queue_depth] gauges;
    [serve_requests_total], [serve_rejected_total],
    [serve_deadline_exceeded_total] counters;
    [serve_request_seconds] histogram over admitted requests
    (admission to completion), whose buckets carry the most recent
    request id as an OpenMetrics exemplar. *)

type t

type reject =
  | Queue_full  (** [max_queue] requests already waiting — back off. *)
  | Shutting_down  (** {!shutdown} has begun. *)

val reject_to_string : reject -> string

val create : max_inflight:int -> max_queue:int -> unit -> t
(** [create ~max_inflight ~max_queue ()] spawns [max_inflight] worker
    domains (>= 1) over a queue bounded at [max_queue] (>= 0; [0] means
    every request must find an idle worker immediately).  Raises
    [Invalid_argument] on non-positive [max_inflight] or negative
    [max_queue]. *)

val submit :
  t ->
  ?deadline:float ->
  ?ctx:Consensus_obs.Context.t ->
  (unit -> 'a) ->
  ('a Consensus_engine.Task.t, reject) result
(** [submit t ~deadline ~ctx work] admits [work] or rejects it, without
    blocking.  [deadline] is a wall-clock budget in seconds from now;
    [ctx] is the request's trace context, installed as the worker's
    ambient context for the evaluation (its timings are filled in before
    the task completes).  On [Ok task],
    {!Consensus_engine.Task.await}[ task] delivers the result — re-raising
    whatever [work] raised, and raising
    {!Consensus_util.Deadline.Expired} if the deadline passed before or
    during evaluation. *)

val run :
  t ->
  ?deadline:float ->
  ?ctx:Consensus_obs.Context.t ->
  (unit -> 'a) ->
  ('a, reject) result
(** [submit] then [await]: blocks the calling thread until the admitted
    request finishes (exceptions re-raised as for {!submit}). *)

val log_access :
  Consensus_obs.Context.t ->
  route:string ->
  family:string option ->
  status:int ->
  unit
(** Emit the per-request access-log line (a {!Consensus_obs.Log} [info]
    event named ["access"]): route, query family, HTTP status, the
    scheduler-recorded queue-wait and run times (milliseconds) and the
    context's cache hit/miss counts, attributed to the context's request
    id.  Called by the front end once the response status is known. *)

val inflight : t -> int
(** Requests currently evaluating (<= [max_inflight]). *)

val queued : t -> int
(** Requests admitted but not yet started. *)

type stats = {
  admitted : int;
  completed : int;  (** includes failed evaluations; excludes rejects *)
  rejected_queue_full : int;
  deadline_exceeded : int;
      (** requests that raised [Deadline.Expired] (queued or evaluating) *)
}

val stats : t -> stats
(** Counters since {!create} (always maintained, independent of the
    observability switch). *)

val count_deadline : t -> unit
(** Record a deadline expiry that surfaced as a value instead of an
    exception ({!Consensus.Api.run_result} traps [Deadline.Expired] and
    returns [Error Deadline_exceeded]); keeps [deadline_exceeded] and the
    [serve_deadline_exceeded_total] counter covering both paths. *)

val shutdown : t -> unit
(** Stop admitting ({!submit} returns [Error Shutting_down]), finish every
    already-admitted request, and join the worker domains.  Idempotent. *)
