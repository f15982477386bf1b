(** Metrics time-series sampler.

    A background domain snapshots every registered metric
    ({!Obs.snapshot}) on a fixed interval into per-metric rings of the
    newest 600 samples, then runs registered tick hooks (SLO evaluation,
    flight recorder triggers).  History queries derive everything from the
    rings: counter rates are sample deltas, histogram rolling
    percentiles come from cumulative-bucket deltas ({!quantile}).

    Start/stop are reference-counted so stacked daemons compose; the
    first {!start} fixes the interval. *)

type sample = { s_ts : float; s_value : Obs.metric_value }

val start : ?interval:float -> unit -> unit
(** Launch the sampler domain (refcounted; an already-running sampler
    keeps its original interval).  [interval] defaults to 1 s (clamped
    to >= 10 ms). *)

val stop : unit -> unit
(** Drop one reference; the last holder joins the sampler domain. *)

val running : unit -> bool
val interval : unit -> float option

val sample_now : unit -> unit
(** Record one snapshot into the rings immediately (no hooks) — for
    deterministic tests. *)

val tick : unit -> unit
(** One full sampler iteration: runtime-events poll, snapshot, hooks. *)

val on_tick : (unit -> unit) -> unit
(** Register a hook run after every sample (background tick or explicit
    {!tick}).  Hooks must not raise; registrations are permanent. *)

(** {1 Window queries} *)

type delta =
  | Counter_window of { cw_delta : int; cw_span_s : float; cw_last : int }
  | Gauge_window of {
      gw_last : float;
      gw_min : float;
      gw_max : float;
      gw_mean : float;
    }
  | Histogram_window of {
      hw_bounds : float array;
      hw_counts : int array;  (** per-bucket (non-cumulative) deltas *)
      hw_count : int;
      hw_sum : float;
      hw_span_s : float;
    }

val window_delta : string -> window:float -> delta option
(** Change of the named metric over the trailing [window] seconds,
    computed between the newest sample and the last sample at or before
    the window start.  [None] when the sampler is off, the metric is
    unknown, or there are not yet two distinct samples (gauges need only
    one).  An {!Obs.reset} inside the window clamps deltas to zero
    rather than going negative. *)

val quantile : bounds:float array -> counts:int array -> float -> float
(** [quantile ~bounds ~counts q] over per-bucket delta [counts]
    ([counts] has one more entry than [bounds], the overflow bucket).
    Returns the upper bound of the first bucket whose cumulative count
    reaches [ceil (q * total)] — exactly the bucket boundary when the
    rank lands on a boundary — [infinity] when the rank falls in the
    overflow bucket, and [nan] when [total = 0]. *)

val history_json :
  metric:string ->
  window:float ->
  (Json.t, [ `Not_running | `Unknown_metric ]) result
(** The [GET /debug/history] document: per-sample points (value/rate for
    counters, value for gauges, count/rate/p50/p99 deltas for
    histograms) plus a whole-window summary. *)

val sparkline :
  metric:string ->
  window:float ->
  (string, [ `Not_running | `Unknown_metric ]) result
(** Compact text view: a header line (min/max/last) and a Unicode
    block-character sparkline of the same series {!history_json} plots. *)

val dump_json : window:float -> unit -> Json.t
(** Every metric's history over the window, keyed by metric name — the
    flight recorder's [metrics_history] section. *)
