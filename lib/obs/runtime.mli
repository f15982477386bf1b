(** GC-pause telemetry from the process's own [Runtime_events] ring.

    {!start} attaches a self-process cursor to the OCaml 5 runtime's
    tracing ring; every {!poll} drains pending events and folds runtime
    phase begin/end pairs into top-level pauses: one pause is the
    wall-clock span of an outermost runtime phase on one domain's ring
    (nested phases are part of their enclosing pause).  Pauses feed the
    [gc_pause_seconds] histogram, the [gc_pauses_total] /
    [runtime_events_lost_total] counters, and a bounded in-memory ring
    used for request attribution.  While the consumer is active every
    metrics exposition ({!Obs.on_scrape}) drains first, so the series are
    current at each scrape without a background sampler.

    Runtime timestamps (monotonic ns) are mapped to Unix wall-clock
    seconds via a calibration user event written on each poll, so pause
    windows are directly comparable with request run windows measured by
    [Unix.gettimeofday].

    Start/stop are reference-counted: concurrent daemons can each
    [start]/[stop] independently.  [poll] may be called from any domain
    (the cursor is mutex-guarded); when inactive it costs one atomic
    load. *)

type pause = {
  pw_domain : int;  (** runtime-events ring id (~ domain id) *)
  pw_start : float;  (** Unix time the pause began *)
  pw_dur : float;  (** seconds *)
}

val start : unit -> unit
(** Enable runtime-events collection and attach the consumer (idempotent,
    refcounted).  Also performs an initial poll to calibrate the clock
    mapping. *)

val stop : unit -> unit
(** Drop one reference; when the last holder stops, collection is paused
    (the cursor is kept — [Runtime_events.start] is sticky). *)

val active : unit -> bool
(** One atomic load; the serve scheduler gates its per-request poll on
    this. *)

val poll : unit -> unit
(** Drain pending runtime events into the pause accounting.  Cheap when
    the ring is quiet; safe from any domain. *)

val poll_if_stale : float -> unit
(** [poll_if_stale max_age] drains only when the last drain is older
    than [max_age] seconds — the rate-limited form the serve scheduler
    uses per request, so a saturation load does not serialize every
    worker on the event cursor. *)

val pause_s_between : ?max_scan:int -> t0:float -> t1:float -> unit -> float
(** Total pause seconds overlapping the Unix-time window [(t0, t1)],
    summed over {e all} domains' recorded pauses.  This is a process-wide
    upper bound on the pause time a request running in that window could
    have experienced — with several worker domains, a pause on another
    domain may not have stalled this request.  It never waits on a drain
    in progress (only on the pause ring's own lock, held for one push or
    one scan), so every scheduler worker may call it at saturation.
    [?max_scan] bounds how many ring entries (newest first) are examined
    — the scheduler caps the scan for fast requests, where full-ring
    precision costs more than the attribution is worth. *)

val recent_pauses : ?limit:int -> unit -> pause list
(** Most recent pauses, newest first (a ring of the newest 4096). *)

val pause_count : unit -> int
(** Total top-level pauses observed since [start] (monotonic, not
    bounded by the ring). *)
