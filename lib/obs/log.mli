(** Structured logging: leveled JSON events, one line per event.

    Every event renders as a single JSON object line —
    [{"ts": ..., "level": "...", "event": "...", "request": "...", <fields>}]
    — with the ambient {!Context} request id attached automatically (or an
    explicit [?ctx] override, for emitters off the request's domain, like
    the access log written from a connection thread).

    Two sinks, both always-on structurally and individually switchable:

    - {e stderr}: one line per event ({!set_stderr}, default on);
    - a {e bounded in-memory ring} of the most recent events ({!recent}),
      which the serve daemon exposes at [GET /debug/log].

    Cost model: an event below the configured {!level} costs one atomic
    load and a branch; the [fields] closure only runs for emitted events.
    The module is independent of the [Obs] tracing switch.

    Thread-safety: any domain or thread may emit concurrently; the ring is
    a {!Consensus_util.Ring} (wraparound drops the oldest events), and
    stderr lines are written whole under their own lock. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option
(** ["debug"] / ["info"] / ["warn"] / ["error"]. *)

val set_level : level -> unit
(** Minimum level that emits (default {!Info}). *)

val level : unit -> level
val enabled : level -> bool

type event = {
  ev_ts : float;  (** Unix time of emission. *)
  ev_level : level;
  ev_name : string;
  ev_request : string option;  (** Owning request, when one was ambient. *)
  ev_fields : (string * Json.t) list;
}

val event_json : event -> Json.t
val render : event -> string
(** The single-line JSON rendering (no trailing newline). *)

val emit : ?ctx:Context.t -> level -> string -> (unit -> (string * Json.t) list) -> unit
(** [emit level name fields] logs one event if [level] passes the filter.
    [?ctx] overrides the ambient context for request attribution. *)

val debug : ?ctx:Context.t -> ?fields:(unit -> (string * Json.t) list) -> string -> unit
val info : ?ctx:Context.t -> ?fields:(unit -> (string * Json.t) list) -> string -> unit
val warn : ?ctx:Context.t -> ?fields:(unit -> (string * Json.t) list) -> string -> unit
val error : ?ctx:Context.t -> ?fields:(unit -> (string * Json.t) list) -> string -> unit

val set_stderr : bool -> unit
(** Enable/disable the stderr sink (default: enabled). *)

val recent : ?limit:int -> unit -> event list
(** The most recent events, newest first ([limit] bounds the answer; the
    ring holds the newest {!ring_capacity} events). *)

val ring_capacity : int
(** 1024. *)

val reset : unit -> unit
(** Drop every ring entry (the level and sink switches are kept). *)
