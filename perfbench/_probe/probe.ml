(* Benchmark probe.  Subcommands:

     gen    --workload W --seed S --dir D
         write the workload's databases to D/<name>.db
     serve  --workload W --seed S --dir D --port P --pid I --seconds T --clients N
            --trace 0|1
         drive the running daemon (process I) with a closed loop of N clients
     kernel --workload W --seed S --dir D --seconds T --trace 0|1 --setup-reps R
         run the workload's kernels in process, with no daemon, after
         timing its set-up R times

   [serve] and [kernel] verify every operation against a reference answer
   computed once, untimed, before the timed phase.  They write raw records
   into D: ops.tsv (one line per timed operation), spans.tsv (traced runs:
   client phases and every bare call into a layer), kv.txt (counters and
   set-up figures) and, for [serve], the daemon's /metrics before and after
   the timed phase.  perfbench/run.py turns these into metrics. *)

open Consensus_anxor
module Api = Consensus.Api
module Protocol = Consensus_serve.Protocol
module Json = Consensus_obs.Json
module Runtime = Consensus_obs.Runtime
module Formats = Consensus_textio.Formats
module Pool = Consensus_engine.Pool
module Metrics = Consensus_engine.Metrics
module Cache = Consensus_cache.Cache
module Prng = Consensus_util.Prng
module Gen = Consensus_workload.Gen
module Lineage_gen = Consensus_workload.Lineage_gen
module Inference = Consensus_pdb.Inference
module Hungarian = Consensus_matching.Hungarian
module Aggregate_consensus = Consensus.Aggregate_consensus
module Cluster_consensus = Consensus.Cluster_consensus
module Topk_consensus = Consensus.Topk_consensus

let now = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("probe: " ^ s); exit 2) fmt

(* ---------- arguments ---------- *)

let args = Hashtbl.create 8

let () =
  let n = Array.length Sys.argv in
  let i = ref 2 in
  while !i + 1 < n do
    let k = Sys.argv.(!i) in
    if String.length k < 3 || String.sub k 0 2 <> "--" then die "bad argument %S" k;
    Hashtbl.replace args (String.sub k 2 (String.length k - 2)) Sys.argv.(!i + 1);
    i := !i + 2
  done

let arg name =
  match Hashtbl.find_opt args name with Some v -> v | None -> die "missing --%s" name

let int_arg name =
  match int_of_string_opt (arg name) with Some v -> v | None -> die "--%s: not an integer" name

let path name = Filename.concat (arg "dir") name

(* ---------- raw output ---------- *)

let kv = Buffer.create 1024
let put key fmt = Printf.ksprintf (fun v -> Printf.bprintf kv "%s %s\n" key v) fmt

let with_out name f =
  let oc = open_out (path name) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_kv () = with_out "kv.txt" (fun oc -> Buffer.output_buffer oc kv)

(* VmHWM of process [pid] ("self" for this one), in KiB. *)
let peak_rss_kb pid =
  let ic = open_in ("/proc/" ^ pid ^ "/status") in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------- workload preparation ---------- *)

type prepared = {
  op : Plan.op;
  db : Db.t;
  query : Api.query;
  reference : Api.answer;
  ref_json : string;  (** [Protocol.answer_json], as the daemon renders it *)
}

let load_dbs (t : Plan.t) =
  List.map (fun (name, _) -> (name, Formats.load_db (path (name ^ ".db")))) t.dbs

let options ~pool ~cache seed =
  Api.Options.make ~pool ~rng:(Prng.create ~seed ()) ~cache ()

let run_api ~pool ~cache db query seed =
  match Api.run_result ~options:(options ~pool ~cache seed) db query with
  | Ok a -> a
  | Error e -> die "query failed: %s" (Api.Error.to_string e)

let parse (op : Plan.op) =
  match Protocol.parse_query_body op.body with
  | Ok q -> q
  | Error e -> die "bad body %S: %s" op.body e

(* Ops that share cached intermediates: a rank table is keyed by database
   and [k]. *)
let share_group (p : Plan.op) query =
  match query with Api.Topk (k, _, _) -> Printf.sprintf "%s/k%d" p.db k | _ -> p.db ^ "/" ^ p.family

(* Reference answers, each computed once.  With [cache] the probability
   cache runs unbounded and is cleared between groups of ops that share
   intermediates, so the bytes it held add up to the distinct working set
   of the workload's intermediates; each op is also given the bytes its
   group held. *)
let prepare ~pool ~cache (t : Plan.t) dbs =
  let parsed = Array.map (fun (op : Plan.op) -> (op, parse op)) t.ops in
  let order = Array.init (Array.length parsed) Fun.id in
  let group i = let op, q = parsed.(i) in share_group op q in
  Array.stable_sort (fun a b -> compare (group a) (group b)) order;
  let working_set = ref 0 in
  if cache then begin
    Cache.set_enabled true;
    Cache.set_capacity_bytes max_int
  end;
  let op_bytes = Array.make (Array.length parsed) 0 in
  let members = ref [] in
  let flush () =
    let bytes = (Cache.stats ()).bytes in
    List.iter (fun i -> op_bytes.(i) <- bytes) !members;
    members := [];
    working_set := !working_set + bytes;
    Cache.clear ()
  in
  let out = Array.make (Array.length parsed) None in
  Array.iteri
    (fun j i ->
      if cache && j > 0 && group order.(j - 1) <> group i then flush ();
      members := i :: !members;
      let op, query = parsed.(i) in
      let db = List.assoc op.db dbs in
      let reference = run_api ~pool ~cache db query op.seed in
      let ref_json = Json.to_string (Protocol.answer_json db reference) in
      out.(i) <- Some { op; db; query; reference; ref_json })
    order;
  if cache then begin
    flush ();
    Cache.set_capacity_bytes Cache.default_capacity_bytes;
    Cache.set_enabled false;
    put "cache.working_set_bytes" "%d" !working_set;
    put "cache.capacity_bytes" "%d" Cache.default_capacity_bytes
  end;
  (Array.map Option.get out, op_bytes)

(* ---------- served answers ---------- *)

let find s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then -1 else if matches i 0 then i else go (i + 1) in
  go 0

(* The ["answer"] field of a /query response: the last field of the object
   the daemon renders with the same emitter as [ref_json]. *)
let answer_of body =
  let key = ",\"answer\":" in
  let i = find body key in
  if i < 0 then None
  else
    let stop = ref (String.length body) in
    while !stop > 0 && (body.[!stop - 1] = '\n' || body.[!stop - 1] = ' ') do decr stop done;
    let start = i + String.length key in
    if !stop - 1 <= start || body.[!stop - 1] <> '}' then None
    else Some (String.sub body start (!stop - 1 - start))

let string_field body name =
  let key = Printf.sprintf "\"%s\":\"" name in
  let i = find body key in
  if i < 0 then ""
  else
    let start = i + String.length key in
    match String.index_from_opt body start '"' with
    | Some j -> String.sub body start (j - start)
    | None -> ""

let number_field body name =
  let key = Printf.sprintf "\"%s\":" name in
  let i = find body key in
  if i < 0 then nan
  else
    let start = i + String.length key in
    let j = ref start in
    while !j < String.length body && body.[!j] <> ',' && body.[!j] <> '}' do incr j done;
    Option.value ~default:nan (float_of_string_opt (String.sub body start (!j - start)))

(* ---------- timed phases ---------- *)

type record = {
  phase : string;
  worker : int;
  item : int;
  t0 : float;
  t1 : float;
  status : int;
  ok : bool;
}

let write_records records =
  with_out "ops.tsv" (fun oc ->
      List.iter
        (fun r ->
          Printf.fprintf oc "%s\t%d\t%d\t%.6f\t%.6f\t%d\t%d\n" r.phase r.worker r.item r.t0
            r.t1 r.status (if r.ok then 1 else 0))
        records)

let write_spans spans = with_out "spans.tsv" (fun oc -> List.iter (Spans.write oc) spans)

(* A deterministic sequence of item indices, each in proportion to its
   weight; workers cycle through it from evenly spaced offsets. *)
let sequence weights ~seed ~len =
  let total = Array.fold_left ( +. ) 0. weights in
  let counts =
    Array.map (fun w -> max 1 (int_of_float (Float.round (w /. total *. float_of_int len)))) weights
  in
  let seq = Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) counts)) in
  Prng.shuffle (Prng.create ~seed ()) seq;
  seq

(* One closed-loop HTTP client: the next request goes out when the previous
   answer is in.  Traced clients also record the request's client phases as
   child spans of one [http.op] span tagged with the daemon's request id.
   The client walks [seq] from [cursor.(worker)] and leaves the cursor where
   it stopped, so the next phase carries on with requests not yet sent. *)
let http_client ?(max_ops = max_int) ~port ~(prepared : prepared array) ~seq ~cursor ~t_end
    ~phase ~worker ~spans () =
  let conn = Http.create port in
  let records = ref [] in
  let j = ref cursor.(worker) in
  let start = !j in
  while now () < t_end && !j - start < max_ops do
    let item = seq.(!j mod Array.length seq) in
    incr j;
    let p = prepared.(item) in
    let path = Printf.sprintf "/query?db=%s&seed=%d" p.op.db p.op.seed in
    let t0 = now () in
    let record =
      match Http.request conn ~meth:"POST" ~path ~body:p.op.body ~t_start:t0 with
      | r ->
          let ok = r.status = 200 && answer_of r.body = Some p.ref_json in
          (match spans with
          | None -> ()
          | Some sp ->
              let tag =
                Printf.sprintf "req=%s;elapsed_ms=%.6f;item=%d;status=%d;reused=%d"
                  (string_field r.body "request")
                  (number_field r.body "elapsed_ms")
                  item r.status
                  (if r.reused then 1 else 0)
              in
              let id = Spans.add sp ~tag "http.op" t0 r.t_last in
              if not r.reused then ignore (Spans.add sp ~parent:id "http.connect" t0 r.t_conn);
              ignore (Spans.add sp ~parent:id "http.send" r.t_conn r.t_sent);
              ignore (Spans.add sp ~parent:id "http.wait" r.t_sent r.t_first);
              ignore (Spans.add sp ~parent:id "http.read" r.t_first r.t_last));
          { phase; worker; item; t0; t1 = r.t_last; status = r.status; ok }
      | exception _ -> { phase; worker; item; t0; t1 = now (); status = 0; ok = false }
    in
    records := record :: !records
  done;
  cursor.(worker) <- !j;
  Http.close conn;
  (!records, conn.opened)

(* Run [f w] for each client [w] on a thread of its own and collect the
   results.  Clients are threads of one domain, not domains: they spend
   their time blocked on the socket, and a single domain keeps the probe's
   own garbage collections from stopping the world across cores the daemon
   is using. *)
let on_threads clients f =
  let results = Array.make clients None in
  List.init clients (fun w -> Thread.create (fun () -> results.(w) <- Some (f w)) ())
  |> List.iter Thread.join;
  Array.to_list (Array.map Option.get results)

(* One closed-loop phase of [Array.length cursor] clients. *)
let run_clients ?(first_worker = 0) ?max_ops ~port ~prepared ~seq ~cursor ~seconds ~phase
    ~traced () =
  let t_end = now () +. seconds in
  let results =
    on_threads (Array.length cursor) (fun w ->
        let spans = if traced then Some (Spans.create ~worker:(first_worker + w)) else None in
        ( http_client ?max_ops ~port ~prepared ~seq ~cursor ~t_end ~phase ~worker:w ~spans (),
          spans ))
  in
  let records = List.concat_map (fun ((r, _), _) -> r) results in
  let opened = List.fold_left (fun acc ((_, o), _) -> acc + o) 0 results in
  put ("connections." ^ phase) "%d" opened;
  (records, List.filter_map snd results)

let scrape port name =
  let conn = Http.create port in
  let status, body = Http.get conn "/metrics" in
  Http.close conn;
  if status <> 200 then die "GET /metrics: status %d" status;
  with_out name (fun oc -> output_string oc body)

(* ---------- bare calls into each layer (traced runs) ---------- *)

let nproc = Domain.recommended_domain_count ()

let repeat n f = for _ = 1 to n do f () done

(* The first resident database among [names]. *)
let db_named dbs names =
  match List.find_map (fun n -> List.assoc_opt n dbs) names with
  | Some db -> db
  | None -> snd (List.hd dbs)

let aggregate_matrix (prepared : prepared array) =
  Array.find_map
    (fun p -> match p.query with Api.Aggregate (m, _) -> Some m | _ -> None)
    prepared

let layers ~sp ~pool ~seed (t : Plan.t) dbs (prepared : prepared array) ~k =
  let span name ?tag f = Spans.time sp ?tag name f in
  (* Protocol: parse every body and render every answer. *)
  let reps = max 1 (600 / Array.length prepared) in
  Array.iter
    (fun p ->
      repeat reps (fun () -> ignore (span "protocol.parse" (fun () -> Protocol.parse_query_body p.op.body))))
    prepared;
  Array.iter
    (fun p ->
      repeat reps (fun () ->
          ignore
            (span "protocol.render" (fun () ->
                 Json.to_string
                   (Protocol.result_json ~request:"req-000001" ~db_name:p.op.db ~query:p.query
                      ~elapsed:0.001 ~db:p.db (Ok p.reference))))))
    prepared;
  (* Database load. *)
  repeat 3 (fun () -> ignore (span "sexp_io.load" (fun () -> load_dbs t)));
  (* Kernels on the workload's own databases, cache off. *)
  let bid = db_named dbs [ "big"; "bid" ] in
  let tree = db_named dbs [ "tree" ] in
  repeat 5 (fun () -> ignore (span "marginals.rank_table" (fun () -> Marginals.rank_table ~pool bid ~k)));
  repeat 3 (fun () ->
      ignore (span "marginals.rank_table_slow" (fun () -> Marginals.rank_table_slow ~pool tree ~k:(min k 10))));
  let rank_db = db_named dbs [ "rank"; "tree" ] in
  let rng = Prng.create ~seed () in
  let square n = Array.init n (fun _ -> Array.init n (fun _ -> Prng.uniform rng)) in
  let m = square (Db.num_keys rank_db) in
  repeat 5 (fun () -> ignore (span "hungarian.minimize" (fun () -> Hungarian.minimize m)));
  (match aggregate_matrix prepared with
  | Some m ->
      let inst = Aggregate_consensus.create m in
      repeat 3 (fun () ->
          ignore (span "min_cost_flow.median" (fun () -> Aggregate_consensus.median inst)))
  | None -> ());
  let clu = Cluster_consensus.make ~pool (db_named dbs [ "clu" ]) in
  repeat 3 (fun () ->
      ignore
        (span "cluster_consensus.pivot" (fun () ->
             Cluster_consensus.best_pivot_of (Prng.create ~seed ()) ~trials:8 clu)));
  (* Lineage inference: the workload's cases, or a fixed set per seed. *)
  let cases =
    if t.lineage <> [||] then t.lineage
    else
      let shapes = Array.of_list Lineage_gen.shape_names in
      let rng = Prng.create ~seed () in
      Array.init (4 * Array.length shapes) (fun i ->
          Lineage_gen.gen_shape shapes.(i mod Array.length shapes) rng)
  in
  Inference.stats_reset ();
  Array.iter
    (fun (c : Lineage_gen.case) ->
      ignore
        (span "inference.probability" ~tag:c.shape (fun () -> Inference.probability c.reg c.lineage)))
    cases;
  let hits, misses = Inference.readonce_stats () in
  put "inference.readonce_hits" "%d" hits;
  put "inference.readonce_misses" "%d" misses;
  put "inference.expansions" "%d" (Inference.stats_expansions ());
  (* Complexity slopes: the same kernels over a range of sizes. *)
  List.iter
    (fun n ->
      let db = Gen.bid_db (Prng.create ~seed:(seed + n) ()) n in
      repeat 3 (fun () ->
          ignore
            (span "slope.rank_table" ~tag:(string_of_int n) (fun () ->
                 Marginals.rank_table_dense db ~k:16))))
    [ 2000; 4000; 8000; 16000 ];
  List.iter
    (fun n ->
      let m = square n in
      repeat 3 (fun () ->
          ignore (span "slope.hungarian" ~tag:(string_of_int n) (fun () -> Hungarian.minimize m))))
    [ 40; 80; 160 ];
  (* The Thm 4 DP alone: the context (rank table) is built outside the span. *)
  List.iter
    (fun n ->
      let db = Gen.bid_db (Prng.create ~seed:(seed + n) ()) n in
      let ctx = Topk_consensus.make_ctx ~pool db ~k:10 in
      repeat 3 (fun () ->
          ignore
            (span "slope.topk_median" ~tag:(string_of_int n) (fun () ->
                 Topk_consensus.median_sym_diff ctx))))
    [ 100; 200; 400 ]

(* The timed window: one phase untraced, or — in traced runs — one-second
   slices alternating between untraced and traced, so that drift over the
   run falls on both sides of the tracing-overhead comparison.  [run phase
   secs traced i] runs slice [i]; its start and end go to kv.txt. *)
let timed ~seconds ~traced run =
  let slices =
    if traced then
      List.init (max 2 (int_of_float seconds)) (fun i ->
          if i mod 2 = 0 then ("untraced", false) else ("traced", true))
      |> List.map (fun (phase, tr) -> (phase, 1., tr))
    else [ ("main", seconds, false) ]
  in
  List.concat
    (List.mapi
       (fun i (phase, secs, tr) ->
         put ("phase." ^ phase ^ ".t0") "%.6f" (now ());
         let r = run phase secs tr i in
         put ("phase." ^ phase ^ ".t1") "%.6f" (now ());
         r)
       slices)

(* Minor words and major collections of this process while [f] runs,
   counted per op. *)
let gc_delta ~ops f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  put "gc.minor_words" "%.0f" (s1.minor_words -. s0.minor_words);
  put "gc.major_collections" "%d" (s1.major_collections - s0.major_collections);
  put "gc.ops" "%d" (ops r);
  r

let pool_metrics pool =
  let stages = Metrics.snapshot (Pool.metrics pool) in
  let chunks = List.fold_left (fun acc (s : Metrics.stage) -> acc + s.chunks) 0 stages in
  let by_worker = List.fold_left (fun acc (s : Metrics.stage) -> acc + s.by_worker) 0 stages in
  put "pool.wall_s" "%.6f" (Metrics.total_wall (Pool.metrics pool));
  put "pool.chunks" "%d" chunks;
  put "pool.by_worker" "%d" by_worker

(* ---------- subcommands ---------- *)

let gen () =
  let t = Plan.make (arg "workload") ~seed:(int_arg "seed") in
  Plan.write_dbs t (arg "dir");
  List.iter
    (fun (name, db) ->
      let file = path (name ^ ".db") in
      Printf.printf "db %s %s keys=%d alts=%d bytes=%d\n" name (Filename.basename file)
        (Db.num_keys db) (Db.num_alts db) (Unix.stat file).st_size)
    t.dbs

let serve () =
  let seed = int_arg "seed" and port = int_arg "port" in
  let seconds = float_of_int (int_arg "seconds") in
  let clients = int_arg "clients" and traced = int_arg "trace" = 1 in
  let t = Plan.make (arg "workload") ~seed in
  let dbs = load_dbs t in
  let pool = Pool.create ~jobs:0 () in
  let t_ref = now () in
  let prepared, op_bytes = prepare ~pool ~cache:true t dbs in
  put "refs.ops" "%d" (Array.length prepared);
  put "refs.s" "%.3f" (now () -. t_ref);
  let seq = sequence t.weights ~seed ~len:(max 64 (8 * Array.length prepared)) in
  let cursor = Array.init clients (fun w -> w * Array.length seq / clients) in
  (* Untimed warm-up.  First fill the cache: the prefill ops, most popular
     last, as many as the cache holds by the bytes each group of ops held
     while the references were computed.  Then a closed loop of a fixed
     number of ops, after which the daemon's peak RSS is read: the daemon
     has then served the same requests on every run, whatever its speed. *)
  let t_warm = now () in
  let fill =
    let rec take acc bytes = function
      | [] -> acc
      | i :: rest ->
          if bytes >= Cache.default_capacity_bytes then acc
          else take (i :: acc) (bytes + op_bytes.(i)) rest
    in
    Array.of_list (take [] 0 (Array.to_list t.prefill))
  in
  put "warm.prefill_ops" "%d" (Array.length fill);
  let failed = Atomic.make 0 in
  let sender w () =
    let conn = Http.create port in
    Array.iteri
      (fun j i ->
        if j mod clients = w then begin
          let p = prepared.(i) in
          let path = Printf.sprintf "/query?db=%s&seed=%d" p.op.db p.op.seed in
          match Http.request conn ~meth:"POST" ~path ~body:p.op.body ~t_start:(now ()) with
          | r when r.status = 200 && answer_of r.body = Some p.ref_json -> ()
          | _ | (exception _) -> Atomic.incr failed
        end)
      fill;
    Http.close conn
  in
  ignore (on_threads clients (fun w -> sender w ()));
  let warm, _ =
    run_clients ~max_ops:(t.warm_ops / clients) ~port ~prepared ~seq ~cursor ~seconds:infinity
      ~phase:"warm" ~traced:false ()
  in
  List.iter (fun r -> if not r.ok then Atomic.incr failed) warm;
  put "warm.failed" "%d" (Atomic.get failed);
  put "warm.s" "%.3f" (now () -. t_warm);
  put "daemon.peak_rss_kb" "%d" (peak_rss_kb (arg "pid"));
  scrape port "metrics_before.txt";
  let spans = ref [] in
  let records =
    timed ~seconds ~traced (fun phase secs traced i ->
        let r, s =
          run_clients ~first_worker:(i * clients) ~port ~prepared ~seq ~cursor ~seconds:secs
            ~phase ~traced ()
        in
        spans := s @ !spans;
        r)
  in
  scrape port "metrics_after.txt";
  write_records records;
  if traced then begin
    let sp = Spans.create ~worker:(-1) in
    (* Bare Api.run_result on the served ops in the same cache state: the
       cache on at its default capacity and warmed by the same sequence. *)
    let bare = Pool.create ~jobs:0 () in
    Cache.set_enabled true;
    let j = ref 0 in
    let bare_loop ~secs ~traced =
      let t_end = now () +. secs in
      while now () < t_end do
        let p = prepared.(seq.(!j mod Array.length seq)) in
        incr j;
        let run () = ignore (run_api ~pool:bare ~cache:true p.db p.query p.op.seed) in
        if traced then Spans.time sp ~tag:p.op.family "api.run" run else run ()
      done
    in
    bare_loop ~secs:3. ~traced:false;
    gc_delta ~ops:Fun.id (fun () ->
        let j0 = !j in
        bare_loop ~secs:2. ~traced:true;
        !j - j0)
    |> ignore;
    Cache.set_enabled false;
    Cache.clear ();
    pool_metrics bare;
    Pool.shutdown bare;
    layers ~sp ~pool ~seed t dbs prepared ~k:(if t.name = "serve_hot" then 6 else 16);
    write_spans (sp :: !spans)
  end;
  Array.iteri (fun i p -> put (Printf.sprintf "item.%d" i) "%s" p.op.family) prepared;
  Pool.shutdown pool;
  write_kv ()

(* kernel_mix: Api ops and lineage inference, one sequence over both.  The
   inference item runs the lineage cases in turn. *)
type item = Query of prepared | Lineage

let kernel () =
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") and traced = int_arg "trace" = 1 in
  let t = Plan.make (arg "workload") ~seed in
  (* Set-up, repeated: load the generated files and create the pool; the
     last one is kept. *)
  let reps = int_arg "setup-reps" in
  let setup () =
    let t0 = now () in
    let dbs = load_dbs t in
    let pool = Pool.create ~jobs:nproc () in
    put "setup_s" "%.6f" (now () -. t0);
    (dbs, pool)
  in
  for _ = 2 to reps do Pool.shutdown (snd (setup ())) done;
  let dbs, pool = setup () in
  let prepared, _ = prepare ~pool ~cache:false t dbs in
  let items = Array.append (Array.map (fun p -> Query p) prepared) [| Lineage |] in
  let expected =
    Array.map (fun (c : Lineage_gen.case) -> Inference.probability c.reg c.lineage) t.lineage
  in
  let family = function Query p -> p.op.family | Lineage -> "inference" in
  let weights = Array.append t.weights [| t.lineage_weight |] in
  let seq =
    sequence weights ~seed ~len:(int_of_float (Array.fold_left ( +. ) 0. weights))
  in
  let next_case = ref 0 in
  let run_item = function
    | Query p ->
        let a = run_api ~pool ~cache:false p.db p.query p.op.seed in
        a = p.reference
    | Lineage ->
        let i = !next_case mod Array.length t.lineage in
        incr next_case;
        let c = t.lineage.(i) in
        Inference.probability c.reg c.lineage = expected.(i)
  in
  let sp = Spans.create ~worker:0 in
  let pause_s = ref 0. in
  (* Position in [seq]; slices carry on where the previous one stopped. *)
  let j = ref 0 in
  let slice phase secs traced _ =
    let t_end = now () +. secs in
    let records = ref [] in
    let pauses0 = Runtime.pause_count () in
    while now () < t_end do
      let i = seq.(!j mod Array.length seq) in
      incr j;
      let t0 = now () in
      let ok = try run_item items.(i) with _ -> false in
      let t1 = now () in
      if traced then ignore (Spans.add sp ~tag:(family items.(i)) "api.run" t0 t1);
      records := { phase; worker = 0; item = i; t0; t1; status = (if ok then 200 else 0); ok } :: !records
    done;
    Runtime.poll ();
    List.iter
      (fun (p : Runtime.pause) -> pause_s := !pause_s +. p.pw_dur)
      (Runtime.recent_pauses ~limit:(Runtime.pause_count () - pauses0) ());
    !records
  in
  (* GC pauses come from the runtime's event ring, in traced runs only. *)
  if traced then Runtime.start ();
  Metrics.reset (Pool.metrics pool);
  let records = gc_delta ~ops:List.length (fun () -> timed ~seconds ~traced slice) in
  if traced then begin
    Runtime.stop ();
    put "gc.pause_s" "%.6f" !pause_s;
    pool_metrics pool
  end;
  write_records records;
  put "peak_rss_kb" "%d" (peak_rss_kb "self");
  if traced then begin
    layers ~sp ~pool ~seed t dbs prepared ~k:40;
    write_spans [ sp ]
  end;
  Array.iteri (fun i it -> put (Printf.sprintf "item.%d" i) "%s" (family it)) items;
  Pool.shutdown pool;
  write_kv ()

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Array.length Sys.argv < 2 then die "usage: probe gen|serve|kernel --key value ...";
  match Sys.argv.(1) with
  | "gen" -> gen ()
  | "serve" -> serve ()
  | "kernel" -> kernel ()
  | cmd -> die "unknown subcommand %S" cmd
