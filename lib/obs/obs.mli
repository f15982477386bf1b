(** Tracing and metrics for the consensus pipeline.

    The subsystem has two halves sharing one global on/off switch:

    - {e Spans}: nestable wall-clock trace spans recorded into per-domain
      buffers (the recording domain takes only its own, uncontended lock) and
      exportable as Chrome [trace_event] JSON — loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.
    - {e Metrics}: named counters, gauges and log-scale latency histograms
      with a Prometheus-style text exposition and a JSON dump.

    {2 Cost model}

    Everything is gated on {!enabled}: when the switch is off (the default),
    an instrumented call site costs one atomic load and one branch — no
    allocation, no lock, no clock read.  Span attributes are built by a
    closure so the attribute list is only allocated when tracing is on.

    Thread-safety: spans may be recorded concurrently from any domain (each
    domain owns its buffer); metric updates are atomic or take a per-metric
    uncontended mutex.  Export functions may run concurrently with
    recording; they observe a consistent snapshot of each buffer. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all recorded spans and zero every registered metric (registrations
    are kept).  Intended for tests and benchmark harnesses.  A span open
    across a [reset] is discarded: its close after the reset is a no-op,
    never a negative-duration or orphan span. *)

(** {1 Spans} *)

type attr = Str of string | Int of int | Float of float | Bool of bool

type gc_delta = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}
(** [Gc.quick_stat] deltas over a span — words allocated (including any
    nested spans' allocations) and collections run while it was open. *)

val zero_gc : gc_delta
(** The all-zero delta: the identity for summing deltas. *)

val with_span : ?attrs:(unit -> (string * attr) list) -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()], recording a span covering its execution
    when {!enabled}.  The [attrs] closure is evaluated once, after [f]
    returns (or raises — the span is recorded either way).  Spans nest:
    a span started inside [f] is fully contained in this one.  The span
    carries the [Gc.quick_stat] delta of [f]. *)

type span = {
  span_name : string;
  span_ts : float;  (** start, seconds since the process trace epoch *)
  span_dur : float;  (** duration in seconds, always [>= 0.] *)
  span_tid : int;  (** recording domain id *)
  span_attrs : (string * attr) list;
  span_gc : gc_delta;
  span_request : string option;
      (** The {!Context} request id ambient when the span closed — every
          span records the owning request automatically (the engine pool
          re-installs the submitting context around parallel chunks).
          [None] outside any request. *)
}

val spans : unit -> span list
(** All recorded spans, sorted by start timestamp (ties by duration,
    longest first, so parents precede their children).  Per-domain
    retention is bounded: a domain keeps exactly its newest
    {!max_events_per_domain} spans, dropping older ones. *)

val max_events_per_domain : int
(** The most spans one domain retains: [2^14]. *)

val request_spans : string -> span list
(** The retained spans tagged with the given request id, sorted as
    {!spans}. *)

val trace_json : ?limit:int -> unit -> string
(** Chrome [trace_event] JSON of {!spans}: an object with a [traceEvents]
    array of complete ("ph":"X") events, timestamps in microseconds.
    Span attributes appear under [args], including [request]/[span] ids
    for request-tagged spans.  [limit] keeps only the [limit] {e newest}
    spans (the export stays in ascending start order), bounding the
    response when scraping a long-lived process. *)

val write_trace : string -> unit
(** [write_trace path] writes {!trace_json} to [path]. *)

(** {1 Metrics} *)

module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Register (or retrieve — [make] is idempotent per name) a counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** No-ops while the subsystem is disabled. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val make : ?help:string -> string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  (** No-ops while the subsystem is disabled. *)

  val value : t -> float
end

module Histogram : sig
  type t

  val default_buckets : float array
  (** Log-scale latency boundaries in seconds: [1e-6 * 2^i] for
      [i = 0 .. 25] (1 µs … ~33.6 s).  An implicit [+Inf] bucket follows. *)

  val make : ?help:string -> ?buckets:float array -> string -> t
  (** [buckets] must be strictly increasing.  Idempotent per name. *)

  val observe : ?exemplar:string -> t -> float -> unit
  (** Record one sample (no-op while disabled).  [exemplar] attaches a
      label — e.g. the request id — to the sample's bucket, replacing the
      bucket's previous exemplar; the Prometheus exposition renders it as
      an OpenMetrics exemplar suffix. *)

  val time : t -> (unit -> 'a) -> 'a
  (** Run a thunk, observing its wall-clock duration when enabled (and
      costing one branch otherwise).  The sample is recorded even when the
      thunk raises. *)

  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) array
  (** Cumulative counts per upper bound, Prometheus-style; the final entry
      is [(infinity, count)]. *)

  val exemplars : t -> (float * (string * float) option) array
  (** Per-bucket [(upper_bound, latest_exemplar)] — the exemplar is the
      most recent [(label, sample)] observed into that bucket, [None] if
      the bucket never saw a labelled sample. *)
end

val metrics_text : unit -> string
(** Prometheus text exposition of every registered metric, sorted by
    name. *)

val metrics_json : unit -> string
(** JSON object keyed by metric name, with
    [{"type": ..., "value"/"count"/"sum"/"buckets": ...}] payloads. *)

(** {1 Scrape hooks} *)

val on_scrape : (unit -> unit) -> unit
(** Register a hook run at the start of every exposition ({!metrics_text},
    {!metrics_json}).  Pull-style gauges — process uptime, live domain
    counts, the GC-pause series — refresh themselves here, so scrape-time
    reads are current without a background updater.  Hooks must be fast
    and must not raise (exceptions are swallowed); registrations are
    permanent. *)

val start_time : float
(** Unix time this module initialized (process start for our purposes);
    exported as the [process_start_time_seconds] gauge, with
    [process_uptime_seconds] derived from it at scrape time. *)
