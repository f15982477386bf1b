(* E24 — shared probability cache on a repeated-query batch.  A batch run
   (CLI `batch`) evaluates many queries against one parsed database; the
   cache memoizes the rank tables, tournament/joint matrices and pairwise
   probabilities keyed by the database digest, so repeated queries skip the
   generating-function work entirely.  Off-vs-on wall clock and the hit rate
   are dumped to BENCH_CACHE.json. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Cache = Consensus_cache.Cache
module Json = Consensus_util.Json

(* One batch pass: three top-k query shapes, each repeated three times —
   the repeated-query profile the cache targets.  Every query goes through
   the same [Api.run] entry as the CLI. *)
let batch db ~k =
  let queries =
    [
      Api.Topk (k, Api.Kendall, Api.Mean);
      Api.Topk (k, Api.Sym_diff, Api.Median);
      Api.Topk (k, Api.Footrule, Api.Mean);
    ]
  in
  List.iter
    (fun q -> ignore (Api.run db q))
    (queries @ queries @ queries)

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let run () =
  Harness.header "E24: shared probability cache (batch off vs on)";
  let g = Prng.create ~seed:2401 () in
  let n = if !Harness.quick then 30 else 60 in
  let k = 8 in
  let reps = if !Harness.quick then 5 else 9 in
  let db = Gen.bid_db g n in
  let was_enabled = Cache.enabled () in
  (* cache off *)
  Cache.set_enabled false;
  batch db ~k;
  (* warmup *)
  let off = Array.init reps (fun _ -> Harness.time_only (fun () -> batch db ~k)) in
  (* cache on: every timed run starts cold (cleared), so the measurement is
     the honest batch profile — first occurrence computes, repeats hit. *)
  Cache.set_enabled true;
  Cache.clear ();
  Cache.reset_stats ();
  batch db ~k;
  (* warmup *)
  let on =
    Array.init reps (fun _ ->
        Cache.clear ();
        Harness.time_only (fun () -> batch db ~k))
  in
  Cache.reset_stats ();
  Cache.clear ();
  batch db ~k;
  let stats = Cache.stats () in
  Cache.set_enabled was_enabled;
  Cache.clear ();
  Cache.reset_stats ();
  let off_med = median off and on_med = median on in
  let speedup = off_med /. on_med in
  let hit_rate =
    float_of_int stats.Cache.hits
    /. float_of_int (max 1 (stats.Cache.hits + stats.Cache.misses))
  in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf "9-query top-k batch, n=%d keys, k=%d, median of %d" n
           k reps)
      [ ("cache", Harness.Tables.Left); ("median (ms)", Harness.Tables.Right) ]
  in
  Harness.Tables.add_row table [ "off"; Harness.ms off_med ];
  Harness.Tables.add_row table [ "on (cold start)"; Harness.ms on_med ];
  Harness.Tables.print table;
  Harness.note "speedup: %.2fx; hit rate %.0f%% (%d hits / %d lookups), %d bytes resident"
    speedup (100. *. hit_rate) stats.Cache.hits
    (stats.Cache.hits + stats.Cache.misses)
    stats.Cache.bytes;
  let runs a = Json.List (Array.to_list a |> List.map (fun t -> Json.Float t)) in
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "e24_cache");
        ("workload", Json.Str "3x3 repeated top-k queries via Api.run");
        ("keys", Json.Int n);
        ("k", Json.Int k);
        ("reps", Json.Int reps);
        ( "cache_off",
          Json.Obj [ ("median_s", Json.Float off_med); ("runs_s", runs off) ] );
        ( "cache_on",
          Json.Obj
            [
              ("median_s", Json.Float on_med);
              ("runs_s", runs on);
              ("hits", Json.Int stats.Cache.hits);
              ("misses", Json.Int stats.Cache.misses);
              ("evictions", Json.Int stats.Cache.evictions);
              ("bytes", Json.Int stats.Cache.bytes);
            ] );
        ("speedup", Json.Float speedup);
        ("hit_rate", Json.Float hit_rate);
      ]
  in
  let oc = open_out "BENCH_CACHE.json" in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Harness.note "cache sweep written to BENCH_CACHE.json"
