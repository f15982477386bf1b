(** The consensus query-serving daemon: resident databases, one shared
    engine pool and probability cache, an admission-controlled scheduler
    ({!Scheduler}) and the concurrent HTTP front end
    ({!Consensus_obs.Expose}).

    Routes (beyond the built-in [/metrics], [/trace], [/quit]):

    - [POST /query?db=NAME] — one wire-syntax query line in the body
      (aggregate matrices follow the line); evaluates against the resident
      database [NAME] (optional when exactly one database is resident).
      Query parameters: [deadline_ms] (per-request deadline, overriding
      the configured default), [seed] (rng seed, default 42), [cache]
      ([true]/[false]: per-request cache bypass), [label] (trace label),
      [explain] ([true] embeds the request's explain profile in the
      response as ["profile"]).  The response carries the request's trace
      id as ["request"].
    - [POST /batch?db=NAME] — any number of database-backed query lines;
      evaluated in order under one scheduler slot and one deadline, with
      per-query rng seeds [seed], [seed+1], ... (matching CLI batch).
      Always 200 on parse success; per-item errors are reported inline.
    - [GET /dbs] — the resident databases and their shapes.
    - [GET /healthz] — the {!Consensus_obs.Expose.healthz} payload
      ([status], [version], [uptime_s]) followed by scheduler [inflight]
      and [queue_depth] and the resident database names.
    - [GET /debug/slow?limit=N] — the slow-query ring, newest first: every
      request whose wall time (queue wait + run) reached
      [slow_threshold], with its timings, cache traffic and folded
      explain profile.  At most [slow_capacity] entries are retained.
    - [GET /debug/log?limit=N] — the most recent structured log events
      ({!Consensus_obs.Log.recent}), newest first.
    - [GET /debug/history] and [GET /debug/slo] fall through to the
      Expose built-ins ({!Consensus_obs.Monitor} time series and
      {!Consensus_obs.Slo} burn rates).

    With the monitor enabled (default), requests additionally carry a
    [gc_pause_ms] field in access-log lines, slow-ring entries and inline
    profiles: the runtime (GC) pause time overlapping the request's run
    window, attributed from [Runtime_events].

    Every request gets a fresh trace context ({!Consensus_obs.Context}):
    spans recorded during its evaluation are tagged with the request id
    (visible in [/trace] and foldable per request), the serve latency
    histogram records the id as an OpenMetrics exemplar, and — unless
    [access_log] is off — completion emits one ["access"] log event with
    route, family, status, queue-wait/run milliseconds and cache
    hits/misses.

    Status mapping: malformed bodies/parameters 400; unknown database 404;
    unsupported metric/flavor combinations 422; deadline exceeded 504;
    queue full 429; load shed / shutting down 503.

    Starting the daemon enables the observability subsystem (admission
    control reads the engine queue-depth gauge, and [/metrics] is part of
    the service contract) and applies [log_level] to the structured
    logger. *)

open Consensus_anxor

type config = {
  host : string;  (** Bind address (default ["127.0.0.1"]). *)
  port : int;  (** [0] picks an ephemeral port; read it back with {!port}. *)
  dbs : (string * Db.t) list;  (** Resident databases, by name. *)
  jobs : int;  (** Engine-pool slots; [0] = auto. *)
  max_inflight : int;  (** Concurrently evaluating requests. *)
  max_queue : int;  (** Admitted requests waiting beyond [max_inflight]. *)
  shed_threshold : float;
      (** Engine-queue-depth level above which admission sheds load
          ([infinity] = never). *)
  default_deadline : float option;
      (** Per-request deadline in seconds when the request names none. *)
  max_connections : int;  (** Concurrent HTTP connection threads. *)
  cache : bool;  (** Enable the shared probability cache. *)
  slow_threshold : float;
      (** Wall-time threshold (seconds) at or above which a request's
          profile is captured into the slow ring ([infinity] = never). *)
  slow_capacity : int;  (** Slow-ring size (>= 1; oldest entries drop). *)
  access_log : bool;  (** Emit one ["access"] log event per request. *)
  log_level : Consensus_obs.Log.level;
      (** Minimum structured-log level, applied at {!start}. *)
  monitor_interval : float;
      (** Sampling interval (seconds) for the metrics time-series monitor
          and the runtime-events GC-pause consumer; [<= 0] disables both
          (no sampler domain, no [gc_pause_ms] attribution).  Default 1 s. *)
  slos : Consensus_obs.Slo.objective list;
      (** Service-level objectives evaluated over the monitor history into
          burn-rate gauges, [GET /debug/slo] and [/healthz] degradation. *)
  slo_config : Consensus_obs.Slo.config;
      (** Burn windows and trip threshold (tests shrink these). *)
  flight_dir : string option;
      (** When set, enables the flight recorder writing into this
          directory (must exist and be writable) and installs a SIGQUIT
          handler that requests a dump. *)
}

val default_config : config
(** Loopback, ephemeral port, no databases, auto-sized pool,
    [max_inflight = 4], [max_queue = 64], no shedding, no default
    deadline, [max_connections = 64], cache on, no slow capture
    ([slow_threshold = infinity], [slow_capacity = 32]), access log on,
    log level [Info], monitor at 1 s, no SLOs, no flight recorder. *)

type t

val start : config -> t
(** Validate the configuration ([Invalid_argument] on an empty database
    list, duplicate or empty names, non-positive bounds or
    [slow_capacity < 1]), spin up pool, scheduler and HTTP server, and
    return the running daemon.  Raises [Unix.Unix_error] if the address
    cannot be bound. *)

val port : t -> int
(** The bound port (resolves ephemeral binds). *)

val scheduler : t -> Scheduler.t
(** The daemon's scheduler (for stats and tests). *)

val wait_quit : t -> unit
(** Block until a [GET /quit] was served (or {!stop} was called). *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, drain in-flight connections and
    admitted requests, then tear down scheduler and pool.  Idempotent. *)
