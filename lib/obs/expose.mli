(** Live exposition: a minimal HTTP/1.1 server over the observability
    subsystem, grown into the front end of the serve daemon.

    Hand-rolled on the [Unix] module only — no HTTP dependency.  The accept
    loop runs on one dedicated domain and hands each connection to its own
    systhread (capped at [max_connections] live threads; at the cap, further
    accepts wait, pushing overload back into the listen [backlog]).  Handler
    threads that block — on sockets or on engine tasks — release the domain
    lock, so one domain multiplexes many in-flight connections while the
    actual query work runs on engine worker domains.

    Connections persist (HTTP/1.1 keep-alive): a handler thread serves the
    requests of its connection in order, pipelined ones included, until
    the client sends [Connection: close], sends an HTTP/1.0 request
    without [Connection: keep-alive], sends a malformed request or
    [GET /quit], or the server stops.  Every response carries
    [Connection: keep-alive] or [Connection: close] to match.  The receive
    timeout (default 10 s) is also the idle timeout: a connection with no
    request under way for that long is closed.

    Built-in routes (served when the custom [handler] declines):

    - [GET /metrics] — Prometheus text exposition ({!Obs.metrics_text}),
      including OpenMetrics exemplar suffixes on histogram buckets that
      observed a labelled sample;
    - [GET /healthz] — liveness probe ({!healthz});
    - [GET /trace] — Chrome [trace_event] JSON snapshot of the spans
      recorded so far ({!Obs.trace_json}).  [?limit=N] keeps only the [N]
      newest spans (still in ascending start order), so scraping a
      long-lived daemon cannot OOM the client; a malformed [limit] is
      [400];
    - [GET /debug/history?metric=NAME&window=SECONDS&format=json|spark] —
      the {!Monitor} time series of one metric: sampled values with
      counter rates and rolling histogram p50/p99, as JSON (default) or a
      text sparkline.  [503] when the monitor is not running, [404] for a
      metric it has never sampled;
    - [GET /debug/slo] — installed objectives with fast/slow-window burn
      rates ({!Slo.to_json});
    - [GET /quit] — acknowledges with ["bye\n"] and releases {!wait_quit}
      (test/CI handshake; see [--listen-hold]).

    Anything else is [404]; non-GET methods on the built-in routes are
    [405].  Malformed query parameters on the built-in routes answer
    [400] with a JSON body [{"error": "..."}].  Services add routes (e.g. the daemon's [POST /query]) through the
    [handler] hook.

    Request parsing is strict where ambiguity would be dangerous:
    duplicate or non-numeric [Content-Length] headers, any
    [Transfer-Encoding] header and request lines over 8 KiB are rejected
    with [400] (bodies over 8 MiB with [413], header blocks over 64 KiB
    with [400], a request stalled past the receive timeout with [408]).
    Every such rejection closes the connection. *)

(** {1 Requests and responses} *)

type request = {
  meth : string;  (** Request method, upper-case as sent (["GET"], ["POST"]). *)
  path : string;  (** Path component of the target, query string stripped. *)
  query : (string * string) list;
      (** Decoded query parameters, in order of appearance. *)
  body : string;
      (** Request body ([Content-Length]-framed; [""] when absent).
          Bodies over 8 MiB are rejected with [413] before the handler
          runs. *)
}

type response = { status : int; content_type : string; body : string }

val response : ?content_type:string -> status:int -> string -> response
(** [response ~status body] with [content_type] defaulting to
    ["text/plain"].  Standard status codes render with their reason
    phrases; unknown ones as the bare number. *)

val healthz : (string * Json.t) list -> response
(** [healthz extra] is the one [/healthz] payload, a JSON object:
    [{"status": "ok" | "degraded", "version": ..., "uptime_s": ...}]
    followed by the [extra] fields.  [status] is ["degraded"] while an
    installed SLO's fast burn is tripped ({!Slo.degraded}); [uptime_s]
    counts from process start.  The built-in route answers it with no
    extra fields; a service that mounts its own [/healthz] (the serve
    daemon) adds its fields here. *)

(** {1 Server} *)

type t

val start :
  ?host:string ->
  ?backlog:int ->
  ?max_connections:int ->
  ?read_timeout:float ->
  ?handler:(request -> response option) ->
  port:int ->
  unit ->
  t
(** Bind [host] (default ["127.0.0.1"]) at [port] ([0] picks an ephemeral
    port — read it back with {!port}) and serve until {!stop}.

    [handler] sees every well-formed request first: [Some resp] sends
    [resp]; [None] falls through to the built-in routes.  A handler
    exception becomes a [500] carrying the exception text.  Handlers run
    concurrently on connection threads and must be thread-safe.

    [backlog] (default 128) is the listen queue; [max_connections]
    (default 64, must be >= 1) caps open connections, idle kept-alive ones
    included — one handler thread each.  [read_timeout] (default 10 s) is
    the socket receive timeout, which bounds both a stalled request and
    an idle connection.  Raises [Unix.Unix_error] if the address cannot be
    bound. *)

val port : t -> int
(** The actually bound port (resolves ephemeral binds). *)

val connections : t -> int
(** Connections open right now, idle kept-alive ones included. *)

val stop : t -> unit
(** Shut the accept loop down, join its domain and drain in-flight
    connection threads.  Idle kept-alive connections are closed at once,
    not waited on; a request already under way is answered (with
    [Connection: close]) first.  Idempotent. *)

val wait_quit : t -> unit
(** Block until a [GET /quit] request has been served (returns immediately
    if one already was).  Also released by {!stop}. *)
