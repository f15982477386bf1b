(* Metrics time-series sampler.

   A background domain wakes on a fixed interval, polls the runtime-events
   consumer, snapshots every registered metric ({!Obs.snapshot}) into
   per-metric rings ({!Consensus_util.Ring}), and then runs registered
   tick hooks (the SLO evaluator and the flight recorder's trigger check
   live there).

   Everything historical derives from the rings: counter rates are deltas
   between samples, histogram rolling percentiles are extracted from
   cumulative-bucket deltas.  Queries fold the relevant window out of the
   metric's ring and compute outside its lock. *)

module Ring = Consensus_util.Ring

type sample = { s_ts : float; s_value : Obs.metric_value }

(* Samples kept per metric: ten minutes at the default 1 s interval. *)
let capacity = 600

(* The ring filler: a constant, as {!Ring.create} asks. *)
let no_sample = { s_ts = 0.; s_value = Obs.Counter_value 0 }

type state = {
  st_interval : float;
  rings : (string, sample Ring.t) Hashtbl.t;
  lock : Mutex.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable dom : unit Domain.t option;
  stopping : bool Atomic.t;
}

let st : state option ref = ref None
let st_lock = Mutex.create ()
let refcount = ref 0

(* ---------- tick hooks ---------- *)

let hooks : (unit -> unit) list ref = ref []
let hooks_lock = Mutex.create ()

let on_tick f =
  Mutex.lock hooks_lock;
  hooks := f :: !hooks;
  Mutex.unlock hooks_lock

let run_hooks () =
  Mutex.lock hooks_lock;
  let hs = !hooks in
  Mutex.unlock hooks_lock;
  List.iter (fun f -> try f () with _ -> ()) hs

(* ---------- sampling ---------- *)

let sample_now () =
  match !st with
  | None -> ()
  | Some s ->
      let ts = Unix.gettimeofday () in
      let snap = Obs.snapshot () in
      Mutex.lock s.lock;
      List.iter
        (fun (name, v) ->
          let r =
            match Hashtbl.find_opt s.rings name with
            | Some r -> r
            | None ->
                let r = Ring.create capacity no_sample in
                Hashtbl.add s.rings name r;
                r
          in
          Ring.push r { s_ts = ts; s_value = v })
        snap;
      Mutex.unlock s.lock

let tick () =
  Runtime.poll ();
  sample_now ();
  run_hooks ()

let rec loop s =
  if not (Atomic.get s.stopping) then begin
    tick ();
    (match Unix.select [ s.stop_r ] [] [] s.st_interval with
    | [], _, _ -> ()
    | _ ->
        (* stop signal: drain and fall through; the stopping flag ends us *)
        let buf = Bytes.create 16 in
        ignore (try Unix.read s.stop_r buf 0 16 with _ -> 0)
    | exception _ -> ());
    loop s
  end

let running () = !st <> None
let interval () = Option.map (fun s -> s.st_interval) !st

let start ?(interval = 1.0) () =
  Mutex.lock st_lock;
  incr refcount;
  if !st = None then begin
    let stop_r, stop_w = Unix.pipe ~cloexec:true () in
    let s =
      {
        st_interval = Float.max 0.01 interval;
        rings = Hashtbl.create 32;
        lock = Mutex.create ();
        stop_r;
        stop_w;
        dom = None;
        stopping = Atomic.make false;
      }
    in
    st := Some s;
    s.dom <- Some (Domain.spawn (fun () -> loop s))
  end;
  Mutex.unlock st_lock

let stop () =
  Mutex.lock st_lock;
  if !refcount > 0 then decr refcount;
  let to_stop = if !refcount = 0 then !st else None in
  (match to_stop with
  | Some s ->
      Atomic.set s.stopping true;
      ignore (try Unix.write s.stop_w (Bytes.of_string "x") 0 1 with _ -> 0);
      st := None
  | None -> ());
  Mutex.unlock st_lock;
  match to_stop with
  | Some s ->
      (match s.dom with Some d -> Domain.join d | None -> ());
      (try Unix.close s.stop_r with _ -> ());
      (try Unix.close s.stop_w with _ -> ())
  | None -> ()

(* ---------- window extraction ---------- *)

(* Oldest-to-newest samples of [name]: the most recent sample older than
   the window start (the delta baseline) and everything inside the
   window.  Returns None if the sampler is off or never saw the metric. *)
let window_samples name ~window =
  match !st with
  | None -> None
  | Some s ->
      Mutex.lock s.lock;
      let r = Hashtbl.find_opt s.rings name in
      Mutex.unlock s.lock;
      Option.map
        (fun r ->
          let cutoff = Unix.gettimeofday () -. window in
          (* Newest first, so the walk ends at the baseline. *)
          Ring.fold r
            ~stop:(fun sm -> sm.s_ts < cutoff)
            (fun (baseline, inside) sm ->
              if sm.s_ts < cutoff then (Some sm, inside) else (baseline, sm :: inside))
            (None, []))
        r

(* ---------- histogram-delta math ---------- *)

(* Per-bucket counts between two cumulative snapshots; negative deltas
   (an [Obs.reset] inside the window) clamp to zero. *)
let bucket_deltas (a : Obs.histogram_snapshot) (b : Obs.histogram_snapshot) =
  let n = Array.length b.hs_cumulative in
  let out = Array.make n 0 in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    let ca = if i < Array.length a.hs_cumulative then a.hs_cumulative.(i) else 0 in
    let cum = b.hs_cumulative.(i) - ca in
    out.(i) <- max 0 (cum - !prev);
    prev := max 0 cum
  done;
  out

let quantile ~bounds ~counts q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
    let rank = min rank total in
    let acc = ref 0 in
    let res = ref Float.infinity in
    (try
       Array.iteri
         (fun i c ->
           acc := !acc + c;
           if !acc >= rank then begin
             res := (if i < Array.length bounds then bounds.(i) else Float.infinity);
             raise Exit
           end)
         counts
     with Exit -> ());
    !res
  end

(* ---------- typed window queries ---------- *)

type delta =
  | Counter_window of { cw_delta : int; cw_span_s : float; cw_last : int }
  | Gauge_window of { gw_last : float; gw_min : float; gw_max : float; gw_mean : float }
  | Histogram_window of {
      hw_bounds : float array;
      hw_counts : int array;  (* per-bucket deltas over the window *)
      hw_count : int;
      hw_sum : float;
      hw_span_s : float;
    }

let zero_hist (h : Obs.histogram_snapshot) =
  {
    Obs.hs_bounds = h.hs_bounds;
    hs_cumulative = Array.make (Array.length h.hs_cumulative) 0;
    hs_sum = 0.;
    hs_count = 0;
  }

let window_delta name ~window =
  match window_samples name ~window with
  | None | Some (_, []) -> None
  | Some (baseline, inside) -> (
      let newest = List.nth inside (List.length inside - 1) in
      let oldest =
        match baseline with Some b -> b | None -> List.hd inside
      in
      let span = newest.s_ts -. oldest.s_ts in
      match (oldest.s_value, newest.s_value) with
      | Obs.Counter_value a, Obs.Counter_value b ->
          if span <= 0. then None
          else Some (Counter_window { cw_delta = max 0 (b - a); cw_span_s = span; cw_last = b })
      | Obs.Gauge_value _, Obs.Gauge_value last ->
          let vals =
            List.filter_map
              (fun s -> match s.s_value with Obs.Gauge_value v -> Some v | _ -> None)
              inside
          in
          let mn = List.fold_left Float.min Float.infinity vals in
          let mx = List.fold_left Float.max Float.neg_infinity vals in
          let mean = List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals) in
          Some (Gauge_window { gw_last = last; gw_min = mn; gw_max = mx; gw_mean = mean })
      | a_v, Obs.Histogram_value b ->
          let a = match a_v with Obs.Histogram_value a -> a | _ -> zero_hist b in
          if span <= 0. then None
          else
            let counts = bucket_deltas a b in
            Some
              (Histogram_window
                 {
                   hw_bounds = Array.copy b.hs_bounds;
                   hw_counts = counts;
                   hw_count = max 0 (b.hs_count - a.hs_count);
                   hw_sum = Float.max 0. (b.hs_sum -. a.hs_sum);
                   hw_span_s = span;
                 })
      | _ -> None)

(* ---------- history exports ---------- *)

let kind_name = function
  | Obs.Counter_value _ -> "counter"
  | Obs.Gauge_value _ -> "gauge"
  | Obs.Histogram_value _ -> "histogram"

(* Per-sample points: counters render value+rate, gauges value, histograms
   the count/rate/p50/p99 of the delta vs the previous sample. *)
let sample_points baseline inside =
  let prev = ref baseline in
  List.filter_map
    (fun s ->
      let p = !prev in
      prev := Some s;
      let ts = ("ts", Json.Float s.s_ts) in
      match s.s_value with
      | Obs.Counter_value v ->
          let rate =
            match p with
            | Some { s_ts = pt; s_value = Obs.Counter_value pv }
              when s.s_ts > pt ->
                [ ("rate", Json.Float (float_of_int (max 0 (v - pv)) /. (s.s_ts -. pt))) ]
            | _ -> []
          in
          Some (Json.Obj ((ts :: [ ("value", Json.Int v) ]) @ rate))
      | Obs.Gauge_value v -> Some (Json.Obj [ ts; ("value", Json.Float v) ])
      | Obs.Histogram_value h ->
          let a =
            match p with
            | Some { s_value = Obs.Histogram_value a; s_ts = pt } when s.s_ts > pt ->
                Some (a, s.s_ts -. pt)
            | _ -> None
          in
          let fields =
            match a with
            | None -> [ ("count", Json.Int h.hs_count) ]
            | Some (a, dt) ->
                let counts = bucket_deltas a h in
                let n = max 0 (h.hs_count - a.hs_count) in
                [
                  ("count", Json.Int n);
                  ("rate", Json.Float (float_of_int n /. dt));
                  ("p50", Json.Float (quantile ~bounds:h.hs_bounds ~counts 0.50));
                  ("p99", Json.Float (quantile ~bounds:h.hs_bounds ~counts 0.99));
                ]
          in
          Some (Json.Obj (ts :: fields)))
    inside

let window_summary name ~window =
  match window_delta name ~window with
  | None -> []
  | Some (Counter_window c) ->
      [
        ("delta", Json.Int c.cw_delta);
        ("rate", Json.Float (float_of_int c.cw_delta /. c.cw_span_s));
        ("last", Json.Int c.cw_last);
      ]
  | Some (Gauge_window g) ->
      [
        ("last", Json.Float g.gw_last);
        ("min", Json.Float g.gw_min);
        ("max", Json.Float g.gw_max);
        ("mean", Json.Float g.gw_mean);
      ]
  | Some (Histogram_window h) ->
      [
        ("count", Json.Int h.hw_count);
        ("rate", Json.Float (float_of_int h.hw_count /. h.hw_span_s));
        ("sum", Json.Float h.hw_sum);
        ("p50", Json.Float (quantile ~bounds:h.hw_bounds ~counts:h.hw_counts 0.50));
        ("p90", Json.Float (quantile ~bounds:h.hw_bounds ~counts:h.hw_counts 0.90));
        ("p99", Json.Float (quantile ~bounds:h.hw_bounds ~counts:h.hw_counts 0.99));
      ]

let history_json ~metric ~window =
  if not (running ()) then Error `Not_running
  else
    match window_samples metric ~window with
    | None -> Error `Unknown_metric
    | Some (baseline, inside) ->
        let kind =
          match (inside, baseline) with
          | s :: _, _ | [], Some s -> kind_name s.s_value
          | [], None -> "unknown"
        in
        Ok
          (Json.Obj
             [
               ("metric", Json.Str metric);
               ("kind", Json.Str kind);
               ("window_s", Json.Float window);
               ( "interval_s",
                 match interval () with
                 | Some i -> Json.Float i
                 | None -> Json.Null );
               ("samples", Json.List (sample_points baseline inside));
               ("window", Json.Obj (window_summary metric ~window));
             ])

(* ---------- sparkline ---------- *)

let spark_blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* The plotted series: gauge values, counter rates, histogram per-sample
   p99s — one point per sample interval. *)
let spark_series baseline inside =
  let prev = ref baseline in
  List.filter_map
    (fun s ->
      let p = !prev in
      prev := Some s;
      match s.s_value with
      | Obs.Gauge_value v -> Some v
      | Obs.Counter_value v -> (
          match p with
          | Some { s_ts = pt; s_value = Obs.Counter_value pv } when s.s_ts > pt ->
              Some (float_of_int (max 0 (v - pv)) /. (s.s_ts -. pt))
          | _ -> None)
      | Obs.Histogram_value h -> (
          match p with
          | Some { s_value = Obs.Histogram_value a; s_ts = pt } when s.s_ts > pt ->
              let counts = bucket_deltas a h in
              let q = quantile ~bounds:h.hs_bounds ~counts 0.99 in
              if Float.is_nan q then Some 0.
              else if Float.is_finite q then Some q
              else Some (if Array.length h.hs_bounds = 0 then 0. else 2. *. h.hs_bounds.(Array.length h.hs_bounds - 1))
          | _ -> None))
    inside

let render_spark values =
  match values with
  | [] -> "(no samples)"
  | _ ->
      let mn = List.fold_left Float.min Float.infinity values in
      let mx = List.fold_left Float.max Float.neg_infinity values in
      let span = mx -. mn in
      let buf = Buffer.create (List.length values * 3) in
      List.iter
        (fun v ->
          let lvl =
            if span <= 0. then 0
            else
              min 7 (max 0 (int_of_float (Float.floor ((v -. mn) /. span *. 8.))))
          in
          Buffer.add_string buf spark_blocks.(lvl))
        values;
      Buffer.contents buf

let sparkline ~metric ~window =
  if not (running ()) then Error `Not_running
  else
    match window_samples metric ~window with
    | None -> Error `Unknown_metric
    | Some (baseline, inside) ->
        let values = spark_series baseline inside in
        let mn = List.fold_left Float.min Float.infinity values in
        let mx = List.fold_left Float.max Float.neg_infinity values in
        let last = match List.rev values with v :: _ -> v | [] -> Float.nan in
        let fmt v = if Float.is_finite v then Printf.sprintf "%.6g" v else "-" in
        Ok
          (Printf.sprintf "%s window=%gs n=%d min=%s max=%s last=%s\n%s\n" metric
             window (List.length values) (fmt mn) (fmt mx) (fmt last)
             (render_spark values))

(* ---------- flight-recorder dump ---------- *)

let dump_json ~window () =
  match !st with
  | None -> Json.Obj []
  | Some s ->
      Mutex.lock s.lock;
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) s.rings [] in
      Mutex.unlock s.lock;
      let names = List.sort compare names in
      Json.Obj
        (List.filter_map
           (fun name ->
             match window_samples name ~window with
             | None | Some (_, []) -> None
             | Some (baseline, inside) ->
                 Some
                   ( name,
                     Json.Obj
                       [
                         ( "kind",
                           Json.Str (kind_name (List.hd inside).s_value) );
                         ("samples", Json.List (sample_points baseline inside));
                       ] ))
           names)
