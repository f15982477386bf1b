module Ring = Consensus_util.Ring

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* GC accounting rides along with spans (it only costs anything while the
   subsystem is on), but keeps its own switch so the marginal cost of the
   [Gc.quick_stat] probes is measurable (bench E26). *)
let gc_probes_flag = Atomic.make true
let gc_probes () = Atomic.get gc_probes_flag
let set_gc_probes b = Atomic.set gc_probes_flag b

(* Bumped by [reset]: a span opened before a reset must not be recorded by
   its close after the reset (it would resurrect pre-reset data into the
   supposedly clean buffers). *)
let generation = Atomic.make 0

let now () = Unix.gettimeofday ()

(* All span timestamps are relative to this process-wide epoch, so exported
   traces start near t = 0 and microsecond offsets keep full precision. *)
let epoch = now ()

(* ---------- spans ---------- *)

type attr = Str of string | Int of int | Float of float | Bool of bool

type gc_delta = {
  gc_minor_words : float;
  gc_major_words : float;
  gc_promoted_words : float;
  gc_minor_collections : int;
  gc_major_collections : int;
}

type span = {
  span_name : string;
  span_ts : float;
  span_dur : float;
  span_tid : int;
  span_attrs : (string * attr) list;
  span_gc : gc_delta option;
  span_request : string option;
}

(* Backstop against unbounded growth in a long-running process with
   tracing on (the serve daemon always has it on): each domain keeps its
   newest spans, in a ring of this many.  Sized for a daemon, whose every
   domain would otherwise retain spans for the life of the process; it is
   still many times the spans of one large request. *)
let max_events_per_domain = 1 lsl 14

let no_span =
  {
    span_name = "";
    span_ts = 0.;
    span_dur = 0.;
    span_tid = 0;
    span_attrs = [];
    span_gc = None;
    span_request = None;
  }

(* Per-domain recording ring.  Only the owning domain pushes, so its lock
   is uncontended except while an exporter folds it: the hot path never
   blocks on another recorder. *)
let buffers : span Ring.t list ref = ref []
let buffers_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let r = Ring.create max_events_per_domain no_span in
      Mutex.lock buffers_lock;
      buffers := r :: !buffers;
      Mutex.unlock buffers_lock;
      r)

let record ~gen name t0 t1 attrs gc =
  (* Close-after-reset is a no-op: the span belongs to a generation whose
     buffers were already dropped. *)
  if Atomic.get generation = gen then begin
    (* Tag the span with the owning request (the ambient trace context the
       scheduler installed and the pool re-installed around this chunk), and
       number it within the request for trace exports. *)
    let request, attrs =
      match Context.current () with
      | None -> (None, attrs)
      | Some c ->
          (Some (Context.id c), ("span", Int (Context.next_span_id c)) :: attrs)
    in
    Ring.push (Domain.DLS.get buffer_key)
      {
        span_name = name;
        span_ts = t0 -. epoch;
        span_dur = Float.max 0. (t1 -. t0);
        span_tid = (Domain.self () :> int);
        span_attrs = attrs;
        span_gc = gc;
        span_request = request;
      }
  end

(* [Gc.quick_stat].minor_words only advances at minor-collection boundaries;
   [Gc.minor_words ()] reads the domain's live allocation pointer, so short
   spans get accurate minor-word deltas too. *)
let gc_sample () = (Gc.quick_stat (), Gc.minor_words ())

let gc_delta ((s0 : Gc.stat), mw0) ((s1 : Gc.stat), mw1) =
  {
    gc_minor_words = mw1 -. mw0;
    gc_major_words = s1.major_words -. s0.major_words;
    gc_promoted_words = s1.promoted_words -. s0.promoted_words;
    gc_minor_collections = s1.minor_collections - s0.minor_collections;
    gc_major_collections = s1.major_collections - s0.major_collections;
  }

let with_span ?attrs name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let gen = Atomic.get generation in
    let gc0 = if Atomic.get gc_probes_flag then Some (gc_sample ()) else None in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        let gc = Option.map (fun s0 -> gc_delta s0 (gc_sample ())) gc0 in
        let attrs = match attrs with None -> [] | Some g -> g () in
        record ~gen name t0 t1 attrs gc)
      f
  end

let spans () =
  let all =
    Mutex.lock buffers_lock;
    let bs = !buffers in
    Mutex.unlock buffers_lock;
    List.fold_left (fun acc r -> Ring.fold r (fun acc s -> s :: acc) acc) [] bs
  in
  (* Start order; longer spans first on equal starts, so a parent precedes
     the children sharing its start timestamp. *)
  List.sort
    (fun a b ->
      match Float.compare a.span_ts b.span_ts with
      | 0 -> Float.compare b.span_dur a.span_dur
      | c -> c)
    all

let request_spans id =
  spans () |> List.filter (fun s -> s.span_request = Some id)

(* ---------- metrics ---------- *)

type counter = { c_name : string; c_help : string; cell : int Atomic.t }

type gauge = {
  g_name : string;
  g_help : string;
  g_lock : Mutex.t;
  mutable g_value : float;
}

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array; (* strictly increasing upper bounds *)
  h_lock : Mutex.t;
  counts : int array; (* per-bucket, length = Array.length bounds + 1 *)
  exemplars : (string * float) option array; (* latest (label, sample) per bucket *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric = C of counter | G of gauge | H of histogram

let metrics : (string, metric) Hashtbl.t = Hashtbl.create 32
let metrics_lock = Mutex.create ()

let register name build describe =
  Mutex.lock metrics_lock;
  let m =
    match Hashtbl.find_opt metrics name with
    | Some m -> m
    | None ->
        let m = build () in
        Hashtbl.add metrics name m;
        m
  in
  Mutex.unlock metrics_lock;
  match describe m with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Obs: metric %s already registered with another type" name)

module Counter = struct
  type t = counter

  let make ?(help = "") name =
    register name
      (fun () -> C { c_name = name; c_help = help; cell = Atomic.make 0 })
      (function C c -> Some c | _ -> None)

  let add t n = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add t.cell n)
  let incr t = add t 1
  let value t = Atomic.get t.cell
end

module Gauge = struct
  type t = gauge

  let make ?(help = "") name =
    register name
      (fun () ->
        G { g_name = name; g_help = help; g_lock = Mutex.create (); g_value = 0. })
      (function G g -> Some g | _ -> None)

  let set t v =
    if Atomic.get enabled_flag then begin
      Mutex.lock t.g_lock;
      t.g_value <- v;
      Mutex.unlock t.g_lock
    end

  let add t v =
    if Atomic.get enabled_flag then begin
      Mutex.lock t.g_lock;
      t.g_value <- t.g_value +. v;
      Mutex.unlock t.g_lock
    end

  let value t =
    Mutex.lock t.g_lock;
    let v = t.g_value in
    Mutex.unlock t.g_lock;
    v
end

module Histogram = struct
  type t = histogram

  (* 1 µs, 2 µs, 4 µs, ... ~33.6 s: latency-oriented log-scale buckets. *)
  let default_buckets = Array.init 26 (fun i -> 1e-6 *. Float.of_int (1 lsl i))

  let make ?(help = "") ?(buckets = default_buckets) name =
    Array.iteri
      (fun i b ->
        if i > 0 && buckets.(i - 1) >= b then
          invalid_arg "Obs.Histogram.make: buckets must be strictly increasing")
      buckets;
    register name
      (fun () ->
        H
          {
            h_name = name;
            h_help = help;
            bounds = Array.copy buckets;
            h_lock = Mutex.create ();
            counts = Array.make (Array.length buckets + 1) 0;
            exemplars = Array.make (Array.length buckets + 1) None;
            h_sum = 0.;
            h_count = 0;
          })
      (function H h -> Some h | _ -> None)

  (* First bucket whose upper bound admits [v] (binary search). *)
  let bucket_of t v =
    let lo = ref 0 and hi = ref (Array.length t.bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= t.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe ?exemplar t v =
    if Atomic.get enabled_flag then begin
      let b = bucket_of t v in
      Mutex.lock t.h_lock;
      t.counts.(b) <- t.counts.(b) + 1;
      (match exemplar with
      | Some label -> t.exemplars.(b) <- Some (label, v)
      | None -> ());
      t.h_sum <- t.h_sum +. v;
      t.h_count <- t.h_count + 1;
      Mutex.unlock t.h_lock
    end

  let time t f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let t0 = now () in
      Fun.protect ~finally:(fun () -> observe t (now () -. t0)) f
    end

  let count t =
    Mutex.lock t.h_lock;
    let c = t.h_count in
    Mutex.unlock t.h_lock;
    c

  let sum t =
    Mutex.lock t.h_lock;
    let s = t.h_sum in
    Mutex.unlock t.h_lock;
    s

  let buckets t =
    Mutex.lock t.h_lock;
    let counts = Array.copy t.counts in
    Mutex.unlock t.h_lock;
    let acc = ref 0 in
    Array.init (Array.length counts) (fun i ->
        acc := !acc + counts.(i);
        let bound =
          if i < Array.length t.bounds then t.bounds.(i) else infinity
        in
        (bound, !acc))

  let exemplars t =
    Mutex.lock t.h_lock;
    let ex = Array.copy t.exemplars in
    Mutex.unlock t.h_lock;
    Array.mapi
      (fun i e ->
        let bound =
          if i < Array.length t.bounds then t.bounds.(i) else infinity
        in
        (bound, e))
      ex
end

let sorted_metrics () =
  Mutex.lock metrics_lock;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) metrics [] in
  Mutex.unlock metrics_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) all

(* ---------- scrape hooks and typed snapshots ---------- *)

(* Pull-style gauges (process uptime, live domain counts) register a hook
   that refreshes their value right before any exposition or snapshot is
   taken, so scrape-time reads are current without a background updater. *)
let scrape_hooks : (unit -> unit) list ref = ref []
let scrape_lock = Mutex.create ()

let on_scrape f =
  Mutex.lock scrape_lock;
  scrape_hooks := f :: !scrape_hooks;
  Mutex.unlock scrape_lock

let run_scrape_hooks () =
  Mutex.lock scrape_lock;
  let hs = !scrape_hooks in
  Mutex.unlock scrape_lock;
  List.iter (fun f -> try f () with _ -> ()) hs

let start_time = epoch

let process_start_gauge =
  Gauge.make ~help:"Unix time this process started, in seconds"
    "process_start_time_seconds"

let process_uptime_gauge =
  Gauge.make ~help:"Seconds since process start" "process_uptime_seconds"

let () =
  on_scrape (fun () ->
      Gauge.set process_start_gauge start_time;
      Gauge.set process_uptime_gauge (now () -. start_time))

type histogram_snapshot = {
  hs_bounds : float array;
  hs_cumulative : int array;
  hs_sum : float;
  hs_count : int;
}

type metric_value =
  | Counter_value of int
  | Gauge_value of float
  | Histogram_value of histogram_snapshot

let snapshot () =
  run_scrape_hooks ();
  sorted_metrics ()
  |> List.map (fun (name, m) ->
         let v =
           match m with
           | C c -> Counter_value (Counter.value c)
           | G g -> Gauge_value (Gauge.value g)
           | H h ->
               (* One lock acquisition so counts, sum and count agree. *)
               Mutex.lock h.h_lock;
               let counts = Array.copy h.counts in
               let sum = h.h_sum and count = h.h_count in
               Mutex.unlock h.h_lock;
               let acc = ref 0 in
               let cumulative =
                 Array.map
                   (fun c ->
                     acc := !acc + c;
                     !acc)
                   counts
               in
               Histogram_value
                 {
                   hs_bounds = Array.copy h.bounds;
                   hs_cumulative = cumulative;
                   hs_sum = sum;
                   hs_count = count;
                 }
         in
         (name, v))

(* ---------- reset ---------- *)

let reset () =
  (* Invalidate spans currently open: their close must not record. *)
  Atomic.incr generation;
  Mutex.lock buffers_lock;
  let bs = !buffers in
  Mutex.unlock buffers_lock;
  List.iter Ring.clear bs;
  sorted_metrics ()
  |> List.iter (fun (_, m) ->
         match m with
         | C c -> Atomic.set c.cell 0
         | G g ->
             Mutex.lock g.g_lock;
             g.g_value <- 0.;
             Mutex.unlock g.g_lock
         | H h ->
             Mutex.lock h.h_lock;
             Array.fill h.counts 0 (Array.length h.counts) 0;
             Array.fill h.exemplars 0 (Array.length h.exemplars) None;
             h.h_sum <- 0.;
             h.h_count <- 0;
             Mutex.unlock h.h_lock)

(* ---------- exports ---------- *)

let attr_json = function
  | Str s -> Json.Str s
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Bool b -> Json.Bool b

let span_json s =
  let base =
    [
      ("name", Json.Str s.span_name);
      ("cat", Json.Str "consensus");
      ("ph", Json.Str "X");
      ("pid", Json.Int 0);
      ("tid", Json.Int s.span_tid);
      ("ts", Json.Float (s.span_ts *. 1e6));
      ("dur", Json.Float (s.span_dur *. 1e6));
    ]
  in
  let gc_fields =
    match s.span_gc with
    | None -> []
    | Some g ->
        [
          ("gc_minor_words", Json.Float g.gc_minor_words);
          ("gc_major_words", Json.Float g.gc_major_words);
          ("gc_promoted_words", Json.Float g.gc_promoted_words);
          ("gc_minor_collections", Json.Int g.gc_minor_collections);
          ("gc_major_collections", Json.Int g.gc_major_collections);
        ]
  in
  let request_fields =
    match s.span_request with
    | None -> []
    | Some id -> [ ("request", Json.Str id) ]
  in
  let args =
    match
      request_fields
      @ List.map (fun (k, v) -> (k, attr_json v)) s.span_attrs
      @ gc_fields
    with
    | [] -> []
    | fields -> [ ("args", Json.Obj fields) ]
  in
  Json.Obj (base @ args)

(* Drop the first [n] elements (the oldest spans of an ascending list). *)
let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let trace_json ?limit () =
  let all = spans () in
  (* [limit] keeps the newest spans; the export stays in ascending start
     order (the Chrome format expects it). *)
  let all =
    match limit with
    | Some n when n >= 0 -> drop (List.length all - n) all
    | _ -> all
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.List (List.map span_json all));
         ("displayTimeUnit", Json.Str "ms");
       ])

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (trace_json ());
      output_char oc '\n')

let prom_escape_help s = Json.escape_string s

let metrics_text () =
  run_scrape_hooks ();
  let buf = Buffer.create 1024 in
  let header name help kind =
    if help <> "" then
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (prom_escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  sorted_metrics ()
  |> List.iter (fun (name, m) ->
         match m with
         | C c ->
             header name c.c_help "counter";
             Buffer.add_string buf (Printf.sprintf "%s %d\n" name (Counter.value c))
         | G g ->
             header name g.g_help "gauge";
             Buffer.add_string buf
               (Printf.sprintf "%s %s\n" name (Json.number_of_float (Gauge.value g)))
         | H h ->
             header name h.h_help "histogram";
             let exemplars = Histogram.exemplars h in
             Array.iteri
               (fun i (bound, cumulative) ->
                 let le =
                   if Float.is_finite bound then Json.number_of_float bound
                   else "+Inf"
                 in
                 (* OpenMetrics exemplar suffix: the most recent request id
                    observed in this bucket, so a latency spike links
                    directly to a capturable request. *)
                 let ex =
                   match snd exemplars.(i) with
                   | None -> ""
                   | Some (label, v) ->
                       Printf.sprintf " # {request_id=\"%s\"} %s" label
                         (Json.number_of_float v)
                 in
                 Buffer.add_string buf
                   (Printf.sprintf "%s_bucket{le=\"%s\"} %d%s\n" name le
                      cumulative ex))
               (Histogram.buckets h);
             Buffer.add_string buf
               (Printf.sprintf "%s_sum %s\n" name (Json.number_of_float (Histogram.sum h)));
             Buffer.add_string buf
               (Printf.sprintf "%s_count %d\n" name (Histogram.count h)));
  Buffer.contents buf

let metrics_obj () =
  run_scrape_hooks ();
  let metric_json m =
    match m with
    | C c ->
        Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int (Counter.value c)) ]
    | G g ->
        Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float (Gauge.value g)) ]
    | H h ->
        let exemplars = Histogram.exemplars h in
        let buckets =
          Histogram.buckets h |> Array.to_list
          |> List.mapi (fun i (bound, cumulative) ->
                 let ex =
                   match snd exemplars.(i) with
                   | None -> []
                   | Some (label, v) ->
                       [
                         ( "exemplar",
                           Json.Obj
                             [
                               ("request", Json.Str label);
                               ("value", Json.Float v);
                             ] );
                       ]
                 in
                 Json.Obj
                   ([
                      ( "le",
                        if Float.is_finite bound then Json.Float bound
                        else Json.Str "+Inf" );
                      ("count", Json.Int cumulative);
                    ]
                   @ ex))
        in
        Json.Obj
          [
            ("type", Json.Str "histogram");
            ("count", Json.Int (Histogram.count h));
            ("sum", Json.Float (Histogram.sum h));
            ("buckets", Json.List buckets);
          ]
  in
  Json.Obj (sorted_metrics () |> List.map (fun (name, m) -> (name, metric_json m)))

let metrics_json () = Json.to_string (metrics_obj ())
