type row = {
  row_name : string;
  row_count : int;
  row_total_s : float;
  row_self_s : float;
  row_gc : Obs.gc_delta;
}

type parallelism = {
  par_wall_s : float;
  par_busy_s : float;
  par_jobs : int;
  par_ratio : float;
}

type family_cache = { fc_family : string; fc_hits : int; fc_misses : int }

type cache_attribution = {
  ca_hits : int;
  ca_misses : int;
  ca_families : family_cache list;
}

type t = {
  wall_s : float;
  span_count : int;
  domain_count : int;
  accounted_s : float;
  rows : row list;
  parallelism : parallelism;
  cache : cache_attribution;
  gc_total : Obs.gc_delta;
}

let add_gc a b =
  {
    Obs.gc_minor_words = a.Obs.gc_minor_words +. b.Obs.gc_minor_words;
    gc_major_words = a.Obs.gc_major_words +. b.Obs.gc_major_words;
    gc_promoted_words = a.Obs.gc_promoted_words +. b.Obs.gc_promoted_words;
    gc_minor_collections = a.Obs.gc_minor_collections + b.Obs.gc_minor_collections;
    gc_major_collections = a.Obs.gc_major_collections + b.Obs.gc_major_collections;
  }

(* Self-attributed delta: the span's own delta minus its children's.  Clamped
   at zero component-wise — quick_stat reads straddling a minor collection can
   make a child's delta marginally exceed its parent's. *)
let sub_gc a b =
  {
    Obs.gc_minor_words = Float.max 0. (a.Obs.gc_minor_words -. b.Obs.gc_minor_words);
    gc_major_words = Float.max 0. (a.Obs.gc_major_words -. b.Obs.gc_major_words);
    gc_promoted_words =
      Float.max 0. (a.Obs.gc_promoted_words -. b.Obs.gc_promoted_words);
    gc_minor_collections =
      max 0 (a.Obs.gc_minor_collections - b.Obs.gc_minor_collections);
    gc_major_collections =
      max 0 (a.Obs.gc_major_collections - b.Obs.gc_major_collections);
  }

(* A span under reconstruction: accumulates the time and GC its direct
   children consumed, so self = total - children at pop time. *)
type node = {
  span : Obs.span;
  mutable child_s : float;
  mutable child_gc : Obs.gc_delta;
}

let span_end (s : Obs.span) = s.Obs.span_ts +. s.Obs.span_dur

(* Timer-granularity slack for interval containment. *)
let eps = 1e-9

let attr_int name (s : Obs.span) =
  List.assoc_opt name s.Obs.span_attrs
  |> Option.map (function Obs.Int i -> i | _ -> 0)

let attr_is_true name (s : Obs.span) =
  match List.assoc_opt name s.Obs.span_attrs with
  | Some (Obs.Bool b) -> b
  | _ -> false

let attr_str name (s : Obs.span) =
  match List.assoc_opt name s.Obs.span_attrs with
  | Some (Obs.Str v) -> Some v
  | _ -> None

let empty =
  {
    wall_s = 0.;
    span_count = 0;
    domain_count = 0;
    accounted_s = 0.;
    rows = [];
    parallelism = { par_wall_s = 0.; par_busy_s = 0.; par_jobs = 0; par_ratio = 1. };
    cache = { ca_hits = 0; ca_misses = 0; ca_families = [] };
    gc_total = Obs.zero_gc;
  }

let of_spans spans =
  match spans with
  | [] -> empty
  | _ ->
      (* Start order, parents before the children sharing their start. *)
      let spans =
        List.sort
          (fun (a : Obs.span) b ->
            match compare a.Obs.span_tid b.Obs.span_tid with
            | 0 -> (
                match Float.compare a.Obs.span_ts b.Obs.span_ts with
                | 0 -> Float.compare b.Obs.span_dur a.Obs.span_dur
                | c -> c)
            | c -> c)
          spans
      in
      let domains = Hashtbl.create 8 in
      let t_min = ref infinity and t_max = ref neg_infinity in
      let accounted = ref 0. and gc_total = ref Obs.zero_gc in
      let par_wall = ref 0. and par_busy = ref 0. and par_jobs = ref 0 in
      let cache_hits = ref 0 and cache_misses = ref 0 in
      let families : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      (* name -> (count, total, self, self_gc) *)
      let agg : (string, int ref * float ref * float ref * Obs.gc_delta ref) Hashtbl.t =
        Hashtbl.create 32
      in
      let fold_into_agg node =
        let s = node.span in
        let self = Float.max 0. (s.Obs.span_dur -. node.child_s) in
        let self_gc = sub_gc s.Obs.span_gc node.child_gc in
        let count, total, self_acc, gc_acc =
          match Hashtbl.find_opt agg s.Obs.span_name with
          | Some cell -> cell
          | None ->
              let cell = (ref 0, ref 0., ref 0., ref Obs.zero_gc) in
              Hashtbl.add agg s.Obs.span_name cell;
              cell
        in
        incr count;
        total := !total +. s.Obs.span_dur;
        self_acc := !self_acc +. self;
        gc_acc := add_gc !gc_acc self_gc
      in
      let stack : node list ref = ref [] in
      let current_tid = ref min_int in
      let flush_stack () = List.iter fold_into_agg !stack in
      List.iter
        (fun (s : Obs.span) ->
          Hashtbl.replace domains s.Obs.span_tid ();
          if s.Obs.span_tid <> !current_tid then begin
            flush_stack ();
            stack := [];
            current_tid := s.Obs.span_tid
          end;
          t_min := Float.min !t_min s.Obs.span_ts;
          t_max := Float.max !t_max (span_end s);
          (match s.Obs.span_name with
          | "engine.parallel" ->
              par_wall := !par_wall +. s.Obs.span_dur;
              if attr_is_true "sequential" s then
                par_busy := !par_busy +. s.Obs.span_dur;
              Option.iter
                (fun j -> par_jobs := max !par_jobs j)
                (attr_int "jobs" s)
          | "engine.chunk" -> par_busy := !par_busy +. s.Obs.span_dur
          | "cache.lookup" ->
              let hit = attr_is_true "hit" s in
              if hit then incr cache_hits else incr cache_misses;
              Option.iter
                (fun family ->
                  let h, m =
                    Option.value (Hashtbl.find_opt families family) ~default:(0, 0)
                  in
                  Hashtbl.replace families family
                    (if hit then (h + 1, m) else (h, m + 1)))
                (attr_str "family" s)
          | _ -> ());
          (* Pop completed spans until the top contains this one. *)
          let rec unwind () =
            match !stack with
            | top :: rest
              when not
                     (s.Obs.span_ts >= top.span.Obs.span_ts -. eps
                     && span_end s <= span_end top.span +. eps) ->
                fold_into_agg top;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | parent :: _ ->
              parent.child_s <- parent.child_s +. s.Obs.span_dur;
              parent.child_gc <- add_gc parent.child_gc s.Obs.span_gc
          | [] ->
              (* A root span of its domain. *)
              accounted := !accounted +. s.Obs.span_dur;
              gc_total := add_gc !gc_total s.Obs.span_gc);
          stack := { span = s; child_s = 0.; child_gc = Obs.zero_gc } :: !stack)
        spans;
      flush_stack ();
      let rows =
        Hashtbl.fold
          (fun name (count, total, self, gc) acc ->
            {
              row_name = name;
              row_count = !count;
              row_total_s = !total;
              row_self_s = !self;
              row_gc = !gc;
            }
            :: acc)
          agg []
        |> List.sort (fun a b ->
               match Float.compare b.row_self_s a.row_self_s with
               | 0 -> compare a.row_name b.row_name
               | c -> c)
      in
      let ca_families =
        Hashtbl.fold
          (fun family (h, m) acc ->
            { fc_family = family; fc_hits = h; fc_misses = m } :: acc)
          families []
        |> List.sort (fun a b -> compare a.fc_family b.fc_family)
      in
      {
        wall_s = Float.max 0. (!t_max -. !t_min);
        span_count = List.length spans;
        domain_count = Hashtbl.length domains;
        accounted_s = !accounted;
        rows;
        parallelism =
          {
            par_wall_s = !par_wall;
            par_busy_s = !par_busy;
            par_jobs = !par_jobs;
            par_ratio = (if !par_wall > 0. then !par_busy /. !par_wall else 1.);
          };
        cache =
          {
            ca_hits = !cache_hits;
            ca_misses = !cache_misses;
            ca_families;
          };
        gc_total = !gc_total;
      }

let capture () = of_spans (Obs.spans ())

(* ---------- rendering ---------- *)

let ms s = Printf.sprintf "%.3f" (s *. 1000.)

let words w =
  if w >= 1e9 then Printf.sprintf "%.2fG" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.2fM" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
  else Printf.sprintf "%.0f" w

let to_text ?(top = 10) t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "profile: wall %s ms, %d spans, %d domains, accounted %s ms" (ms t.wall_s)
    t.span_count t.domain_count (ms t.accounted_s);
  line "gc: %s minor words, %s major words, %s promoted, %d minor / %d major collections"
    (words t.gc_total.Obs.gc_minor_words)
    (words t.gc_total.Obs.gc_major_words)
    (words t.gc_total.Obs.gc_promoted_words)
    t.gc_total.Obs.gc_minor_collections t.gc_total.Obs.gc_major_collections;
  let p = t.parallelism in
  if p.par_wall_s > 0. then
    line
      "parallel: %.2fx busy/wall (busy %s ms over %s ms parallel wall, jobs %d, \
       utilization %.0f%%)"
      p.par_ratio (ms p.par_busy_s) (ms p.par_wall_s) p.par_jobs
      (if p.par_jobs > 0 then 100. *. p.par_ratio /. float_of_int p.par_jobs
       else 100.)
  else line "parallel: no engine spans recorded";
  let c = t.cache in
  let lookups = c.ca_hits + c.ca_misses in
  if lookups > 0 then begin
    line "cache: %d lookups, %d hits / %d misses (%.0f%% hit rate)" lookups
      c.ca_hits c.ca_misses
      (100. *. float_of_int c.ca_hits /. float_of_int lookups);
    List.iter
      (fun f -> line "  %s: %d hits / %d misses" f.fc_family f.fc_hits f.fc_misses)
      c.ca_families
  end
  else line "cache: no lookups recorded";
  line "hotspots (top %d of %d span names, by self time):"
    (min top (List.length t.rows))
    (List.length t.rows);
  line "  %10s %10s %6s %6s %12s  %s" "self(ms)" "total(ms)" "count" "self%"
    "minor-words" "span";
  let shown = List.filteri (fun i _ -> i < top) t.rows in
  List.iter
    (fun r ->
      line "  %10s %10s %6d %5.1f%% %12s  %s" (ms r.row_self_s) (ms r.row_total_s)
        r.row_count
        (if t.accounted_s > 0. then 100. *. r.row_self_s /. t.accounted_s else 0.)
        (words r.row_gc.Obs.gc_minor_words)
        r.row_name)
    shown;
  Buffer.contents buf

let gc_json (g : Obs.gc_delta) =
  Json.Obj
    [
      ("minor_words", Json.Float g.Obs.gc_minor_words);
      ("major_words", Json.Float g.Obs.gc_major_words);
      ("promoted_words", Json.Float g.Obs.gc_promoted_words);
      ("minor_collections", Json.Int g.Obs.gc_minor_collections);
      ("major_collections", Json.Int g.Obs.gc_major_collections);
    ]

let to_obj ?top t =
  let top = Option.value top ~default:(List.length t.rows) in
  let row_json r =
    Json.Obj
      [
        ("name", Json.Str r.row_name);
        ("count", Json.Int r.row_count);
        ("total_s", Json.Float r.row_total_s);
        ("self_s", Json.Float r.row_self_s);
        ("gc", gc_json r.row_gc);
      ]
  in
  let family_json f =
    Json.Obj
      [
        ("family", Json.Str f.fc_family);
        ("hits", Json.Int f.fc_hits);
        ("misses", Json.Int f.fc_misses);
      ]
  in
  Json.Obj
    [
      ("wall_s", Json.Float t.wall_s);
      ("spans", Json.Int t.span_count);
      ("domains", Json.Int t.domain_count);
      ("accounted_s", Json.Float t.accounted_s);
      ("gc", gc_json t.gc_total);
      ( "parallelism",
        Json.Obj
          [
            ("wall_s", Json.Float t.parallelism.par_wall_s);
            ("busy_s", Json.Float t.parallelism.par_busy_s);
            ("jobs", Json.Int t.parallelism.par_jobs);
            ("ratio", Json.Float t.parallelism.par_ratio);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int t.cache.ca_hits);
            ("misses", Json.Int t.cache.ca_misses);
            ("families", Json.List (List.map family_json t.cache.ca_families));
          ] );
      ( "hotspots",
        Json.List (List.filteri (fun i _ -> i < top) t.rows |> List.map row_json)
      );
    ]

let to_json ?top t = Json.to_string (to_obj ?top t)
