(* GC-pause telemetry from the process's own Runtime_events ring.

   The OCaml 5 runtime emits begin/end events for every runtime phase
   (minor collection, major slices, stop-the-world barriers, ...) into a
   per-domain ring buffer.  We attach a self-process cursor and fold those
   phase events into:

   - a [gc_pause_seconds] histogram — one sample per *top-level* phase
     span, i.e. the wall-clock interval from the outermost runtime_begin
     to its matching runtime_end on a given ring.  Nested phases (a minor
     collection inside a stop-the-world section) are part of their
     enclosing pause, not counted twice.  This is the same notion of
     "pause" olly and eventlog tools use.
   - a bounded in-memory ring of recent pauses carrying wall-clock
     windows, so the serve scheduler can attribute the pauses overlapping
     a request's run window to that request ([pause_s_between]) and the
     flight recorder can dump them.

   Clock calibration: Runtime_events timestamps are monotonic
   nanoseconds from an arbitrary origin, while request run windows are
   Unix wall-clock seconds.  We bridge the two with a user event: each
   [poll] writes a calibration event bracketed by two [Unix.gettimeofday]
   calls; when the consumer sees that event it learns
   [offset = mid(t0, t1) - timestamp], which maps any runtime timestamp
   to wall-clock time.  The offset is re-estimated on every poll, so
   drift stays bounded by the polling interval's scheduling noise. *)

module RE = Runtime_events
module Ring = Consensus_util.Ring

type pause = {
  pw_domain : int;  (* runtime-events ring id, ~ domain id *)
  pw_start : float; (* Unix time the top-level phase began *)
  pw_dur : float;   (* seconds *)
}

(* ---------- metrics ---------- *)

let m_pause =
  Obs.Histogram.make
    ~help:"Top-level runtime (GC/stop-the-world) pause durations, seconds"
    "gc_pause_seconds"

let m_pauses_total =
  Obs.Counter.make ~help:"Top-level runtime pauses observed" "gc_pauses_total"

let m_lost =
  Obs.Counter.make
    ~help:"Runtime events dropped because the consumer fell behind"
    "runtime_events_lost_total"

let m_rings = Obs.Gauge.make ~help:"Runtime-event rings (domains) that have emitted events" "ocaml_runtime_domains_seen"

(* ---------- consumer state (all under [lock]) ---------- *)

type ring_state = {
  mutable depth : int;
  mutable top_start : int64;  (* timestamp of the depth-0 -> 1 begin *)
  mutable top_countable : bool;  (* top-level phase is a real pause *)
}

let lock = Mutex.create ()
let cursor : RE.cursor option ref = ref None
let callbacks : RE.Callbacks.t option ref = ref None
let refcount = ref 0
let active_flag = Atomic.make false
let rings : (int, ring_state) Hashtbl.t = Hashtbl.create 8

(* monotonic-ns -> unix-seconds offset; nan until first calibration *)
let clock_offset = ref nan
let calib_mid = ref nan (* unix midpoint of the last calibration write *)

let pause_ring = Ring.create 4096 { pw_domain = 0; pw_start = 0.; pw_dur = 0. }
let pauses_seen = ref 0

type RE.User.tag += Calibrate

let calibrate_ev = RE.User.register "consensus.calibrate" Calibrate RE.Type.unit

let ts_seconds ts = Int64.to_float (RE.Timestamp.to_int64 ts) *. 1e-9

let ns_to_unix ns =
  let off = !clock_offset in
  if Float.is_nan off then nan else (Int64.to_float ns *. 1e-9) +. off

let ring_state id =
  match Hashtbl.find_opt rings id with
  | Some s -> s
  | None ->
      let s = { depth = 0; top_start = 0L; top_countable = false } in
      Hashtbl.add rings id s;
      Obs.Gauge.set m_rings (float_of_int (Hashtbl.length rings));
      s

(* Phase nesting is reconstructed from a begin/end stream that can have
   holes: ring overflow drops events, and [RE.pause] (between daemon
   lifetimes) cuts phases mid-span.  A missed end leaves [depth] stuck
   above zero, which both swallows every later pause and — when ends
   finally drive it back to zero — fabricates one giant pause covering
   the whole gap.  Whenever we know the stream is discontinuous, restart
   the nesting from scratch. *)
let reset_ring_depths () =
  Hashtbl.iter
    (fun _ s ->
      s.depth <- 0;
      s.top_countable <- false)
    rings

(* Every pause feeds the histogram and counter, but only pauses that
   could visibly contribute to a request's [gc_pause_ms] enter the
   attribution ring.  A GC-heavy saturation load emits thousands of
   micro-pauses per second; admitting them all keeps the ring churning at
   full capacity, so the per-request overlap scan degenerates to a full
   4096-entry walk — measurable on small machines.  With the floor the
   ring holds minutes of the pauses that matter and the scan's
   newest-first early exit does its job. *)
let min_attributable_pause = 50e-6

let record_pause domain start_ns dur =
  incr pauses_seen;
  Obs.Counter.incr m_pauses_total;
  Obs.Histogram.observe m_pause dur;
  let start_unix = ns_to_unix start_ns in
  if dur >= min_attributable_pause && not (Float.is_nan start_unix) then
    Ring.push pause_ring { pw_domain = domain; pw_start = start_unix; pw_dur = dur }

(* A domain parked in the runtime's condition-wait (an idle domain waiting
   for a stop-the-world barrier to be requested, or terminating) is not a
   pause anyone experiences; don't count those spans when they are the
   top-level phase. *)
let countable_phase = function
  | RE.EV_DOMAIN_CONDITION_WAIT -> false
  | _ -> true

let on_begin ring_id ts phase =
  let s = ring_state ring_id in
  if s.depth = 0 then begin
    s.top_start <- RE.Timestamp.to_int64 ts;
    s.top_countable <- countable_phase phase
  end;
  s.depth <- s.depth + 1

(* An implausibly long "pause" means the begin that opened it was stale
   (a dropped end somewhere in between); discard it rather than poison
   the histogram and the attribution ring. *)
let max_plausible_pause = 5.0

let on_end ring_id ts _phase =
  let s = ring_state ring_id in
  if s.depth > 0 then begin
    s.depth <- s.depth - 1;
    if s.depth = 0 && s.top_countable then begin
      let dur = Int64.to_float (Int64.sub (RE.Timestamp.to_int64 ts) s.top_start) *. 1e-9 in
      if dur > 0. && dur <= max_plausible_pause then
        record_pause ring_id s.top_start dur
    end
  end

let on_lost _ring_id n =
  Obs.Counter.add m_lost n;
  reset_ring_depths ()

let on_calibrate _ring_id ts ev () =
  if RE.User.tag ev = Calibrate then begin
    let mid = !calib_mid in
    if not (Float.is_nan mid) then clock_offset := mid -. ts_seconds ts
  end

let make_callbacks () =
  RE.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
    ~lost_events:on_lost ()
  |> RE.Callbacks.add_user_event RE.Type.unit on_calibrate

let active () = Atomic.get active_flag

(* Unix time of the last completed drain.  Plain ref read outside the
   lock: a stale read only costs one redundant poll. *)
let last_poll = ref neg_infinity

let poll () =
  if active () then begin
    Mutex.lock lock;
    (match (!cursor, !callbacks) with
    | Some c, Some cbs ->
        (* Write the calibration event first so this very poll consumes
           it and refreshes the clock offset. *)
        let t0 = Unix.gettimeofday () in
        RE.User.write calibrate_ev ();
        let t1 = Unix.gettimeofday () in
        calib_mid := (t0 +. t1) /. 2.;
        (try ignore (RE.read_poll c cbs None) with _ -> ());
        last_poll := Unix.gettimeofday ()
    | _ -> ());
    Mutex.unlock lock
  end

(* Drain only if nobody has within [max_age] seconds.  The serve
   scheduler calls this per request: at saturation thousands of fast
   requests a second would otherwise all queue on the cursor lock to
   drain the same event firehose, and the drain cost dominates the
   request itself. *)
let poll_if_stale max_age =
  if active () && Unix.gettimeofday () -. !last_poll > max_age then poll ()

let start () =
  Mutex.lock lock;
  incr refcount;
  if !refcount = 1 then begin
    (* Collection was paused (or never on): the event stream is about to
       restart with a hole in it.  [RE.start] only enables collection the
       first time; after a [RE.pause] it is [resume] that turns the event
       stream back on. *)
    reset_ring_depths ();
    (try RE.start () with _ -> ());
    (try RE.resume () with _ -> ());
    (match !cursor with
    | Some _ -> ()
    | None -> (
        match RE.create_cursor None with
        | c ->
            cursor := Some c;
            callbacks := Some (make_callbacks ())
        | exception _ -> ()));
    if !cursor <> None then Atomic.set active_flag true
  end;
  Mutex.unlock lock;
  poll ()

let stop () =
  Mutex.lock lock;
  if !refcount > 0 then decr refcount;
  let last = !refcount = 0 in
  if last then Atomic.set active_flag false;
  Mutex.unlock lock;
  (* Keep the cursor: Runtime_events.start is sticky and re-creating
     cursors churns file descriptors.  [pause] stops event collection. *)
  if last then try RE.pause () with _ -> ()

let recent_pauses ?limit () =
  List.rev (Ring.fold ?limit pause_ring (fun acc p -> p :: acc) [])

(* Request attribution runs on every scheduler worker at saturation, so
   it must not wait on [lock], which a drain holds across [read_poll]:
   it takes only the ring's own lock, for one bounded fold, while a drain
   takes it for one push at a time.  Walk newest-first and stop at the
   first pause that starts so far before [t0] that no later (older) entry
   could still overlap — drain batches interleave rings, so starts are
   only approximately ordered; the [max_plausible_pause] duration cap plus
   a generous reorder slack bounds how far back an overlapping pause can
   hide.  That stopping pause ends before [t0], so it adds nothing. *)
let pause_s_between ?(max_scan = max_int) ~t0 ~t1 () =
  if t1 <= t0 then 0.
  else begin
    let horizon = t0 -. max_plausible_pause -. 30. in
    Ring.fold ~limit:max_scan
      ~stop:(fun p -> p.pw_start < horizon)
      pause_ring
      (fun acc p ->
        let overlap = Float.min (p.pw_start +. p.pw_dur) t1 -. Float.max p.pw_start t0 in
        if overlap > 0. then acc +. overlap else acc)
      0.
  end

let pause_count () =
  Mutex.lock lock;
  let n = !pauses_seen in
  Mutex.unlock lock;
  n
