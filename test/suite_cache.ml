(* Cache tests: LRU mechanics, facade stats, and the transparency property —
   cache-enabled answers are bit-identical to cache-disabled answers for any
   capacity (including eviction-forcing ones) and any jobs setting. *)

open Consensus_util
module Lru = Consensus_cache.Lru
module Cache = Consensus_cache.Cache
module Pool = Consensus_engine.Pool
module Gen = Consensus_workload.Gen
module Api = Consensus.Api

(* --- LRU mechanics --- *)

let test_lru_basic () =
  let t = Lru.create ~capacity:100 in
  Lru.add t "a" ~cost:10 1;
  Lru.add t "b" ~cost:10 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find t "a");
  Alcotest.(check (option int)) "find b" (Some 2) (Lru.find t "b");
  Alcotest.(check (option int)) "miss" None (Lru.find t "c");
  Alcotest.(check int) "length" 2 (Lru.length t);
  Alcotest.(check int) "cost" 20 (Lru.cost t);
  Lru.add t "a" ~cost:30 11;
  Alcotest.(check (option int)) "overwrite" (Some 11) (Lru.find t "a");
  Alcotest.(check int) "cost after overwrite" 40 (Lru.cost t)

let test_lru_eviction_order () =
  let t = Lru.create ~capacity:30 in
  Lru.add t "a" ~cost:10 1;
  Lru.add t "b" ~cost:10 2;
  Lru.add t "c" ~cost:10 3;
  (* touch "a" so "b" is the LRU entry *)
  ignore (Lru.find t "a");
  Lru.add t "d" ~cost:10 4;
  Alcotest.(check (option int)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "a kept (recently used)" (Some 1) (Lru.find t "a");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions t);
  Alcotest.(check bool) "within capacity" true (Lru.cost t <= Lru.capacity t)

let test_lru_oversized () =
  let t = Lru.create ~capacity:20 in
  Lru.add t "a" ~cost:10 1;
  Lru.add t "big" ~cost:1000 2;
  Alcotest.(check (option int)) "oversized entry not kept" None (Lru.find t "big");
  Alcotest.(check (option int)) "small entry survives" (Some 1) (Lru.find t "a");
  Alcotest.(check int) "oversized counted as eviction" 1 (Lru.evictions t)

let test_lru_shrink () =
  let t = Lru.create ~capacity:100 in
  for i = 0 to 9 do
    Lru.add t (string_of_int i) ~cost:10 i
  done;
  Alcotest.(check int) "full" 10 (Lru.length t);
  Lru.set_capacity t 25;
  Alcotest.(check bool) "shrunk" true (Lru.length t <= 2 && Lru.cost t <= 25);
  Alcotest.(check (option int)) "MRU survives shrink" (Some 9)
    (Lru.find t "9");
  Lru.remove t "9";
  Alcotest.(check (option int)) "removed" None (Lru.find t "9");
  Lru.clear t;
  Alcotest.(check int) "cleared" 0 (Lru.length t);
  Alcotest.(check int) "cost zero" 0 (Lru.cost t)

(* --- facade --- *)

(* Each test restores the global cache to its default (disabled) state. *)
let with_cache ?(capacity = Cache.default_capacity_bytes) f =
  Cache.clear ();
  Cache.reset_stats ();
  Cache.set_capacity_bytes capacity;
  Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_enabled false;
      Cache.set_capacity_bytes Cache.default_capacity_bytes;
      Cache.clear ();
      Cache.reset_stats ())
    f

let test_cache_disabled_noop () =
  Cache.set_enabled false;
  Cache.clear ();
  Cache.reset_stats ();
  let key = Cache.key ~family:"t" ~digest:"d" ~params:[ "1" ] in
  Cache.store Cache.Prob key 0.5;
  Alcotest.(check bool) "store is a no-op when disabled" true
    (Cache.find Cache.Prob key = None);
  let s = Cache.stats () in
  Alcotest.(check int) "no hits" 0 s.Cache.hits;
  Alcotest.(check int) "no misses" 0 s.Cache.misses

let test_cache_memo_stats () =
  with_cache @@ fun () ->
  let calls = ref 0 in
  let memo () =
    Cache.memo Cache.Prob ~family:"t"
      ~digest:(fun () -> "d")
      ~params:[ "1" ]
      (fun () ->
        incr calls;
        0.25)
  in
  Alcotest.(check (float 0.)) "value" 0.25 (memo ());
  Alcotest.(check (float 0.)) "cached value" 0.25 (memo ());
  Alcotest.(check bool) "another kind under the key misses" true
    (Cache.find Cache.Matrix (Cache.key ~family:"t" ~digest:"d" ~params:[ "1" ])
    = None);
  Alcotest.(check int) "computed once" 1 !calls;
  let s = Cache.stats () in
  Alcotest.(check int) "one hit" 1 s.Cache.hits;
  Alcotest.(check int) "two misses" 2 s.Cache.misses;
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check bool) "bytes accounted" true (s.Cache.bytes > 0);
  Cache.reset_stats ();
  let s = Cache.stats () in
  Alcotest.(check int) "hits reset" 0 s.Cache.hits;
  Alcotest.(check int) "misses reset" 0 s.Cache.misses

let test_cache_key_distinct () =
  (* Families, digests and params must not collide. *)
  let keys =
    [
      Cache.key ~family:"a" ~digest:"d" ~params:[ "1" ];
      Cache.key ~family:"a" ~digest:"d" ~params:[ "2" ];
      Cache.key ~family:"a" ~digest:"e" ~params:[ "1" ];
      Cache.key ~family:"b" ~digest:"d" ~params:[ "1" ];
      Cache.key ~family:"a" ~digest:"d" ~params:[ "1"; "2" ];
      Cache.key ~family:"a" ~digest:"d" ~params:[ "12" ];
    ]
  in
  Alcotest.(check int) "all distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_cache_eviction_under_pressure () =
  with_cache ~capacity:600 @@ fun () ->
  for i = 0 to 9 do
    Cache.store Cache.Matrix
      (Cache.key ~family:"m" ~digest:(string_of_int i) ~params:[])
      (Array.make_matrix 4 4 (float_of_int i))
  done;
  let s = Cache.stats () in
  Alcotest.(check bool) "evictions happened" true (s.Cache.evictions > 0);
  Alcotest.(check bool) "stays within capacity" true (s.Cache.bytes <= 600)

let test_cache_concurrent_memo () =
  (* Two domains memoizing the same key set concurrently: every returned
     value must be consistent and the cache must stay coherent. *)
  with_cache @@ fun () ->
  let worker id =
    let bad = ref 0 in
    for round = 0 to 199 do
      let k = round mod 10 in
      let p =
        Cache.memo Cache.Prob ~family:"race"
          ~digest:(fun () -> string_of_int k)
          ~params:[]
          (fun () -> float_of_int k)
      in
      if p <> float_of_int k then incr bad
    done;
    ignore id;
    !bad
  in
  let d = Domain.spawn (fun () -> worker 1) in
  let bad0 = worker 0 in
  let bad1 = Domain.join d in
  Alcotest.(check int) "no inconsistent reads" 0 (bad0 + bad1)

(* A top-k request on a warm cache runs no kernel: the rank table is
   memoized, and the ordered joints and O_i totals (one size-conditioned
   rank-kernel run per alternative, timed by the per-alternative rank
   histogram; the BID rank table runs its sweep instead) that every
   answer's Kendall evaluation reads are published together under one key.
   The cold run, on a cleared cache, computes them. *)
let test_warm_topk_runs_no_kernels () =
  let module Obs = Consensus_obs.Obs in
  let rank_runs = Obs.Histogram.make "anxor_rank_dist_seconds" in
  let db = Gen.bid_db (Prng.create ~seed:28 ()) 10 in
  let joint_batches () =
    List.length
      (List.filter
         (fun sp -> sp.Obs.span_name = "core.topk.kendall_joints")
         (Obs.spans ()))
  in
  with_cache @@ fun () ->
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  List.iter
    (fun metric ->
      let q = Api.Topk (3, metric, Api.Mean) in
      let name = Api.query_name q in
      Cache.clear ();
      Obs.reset ();
      let cold = Api.run db q in
      Alcotest.(check bool) (name ^ ": cold run computes joints") true
        (joint_batches () > 0);
      Alcotest.(check bool) (name ^ ": cold run computes totals") true
        (Obs.Histogram.count rank_runs > 0);
      Obs.reset ();
      let misses = (Cache.stats ()).Cache.misses in
      let warm = Api.run db q in
      Alcotest.(check int) (name ^ ": warm joint batches") 0 (joint_batches ());
      Alcotest.(check int) (name ^ ": warm rank-kernel runs") 0
        (Obs.Histogram.count rank_runs);
      Alcotest.(check int) (name ^ ": warm cache misses") misses
        (Cache.stats ()).Cache.misses;
      Alcotest.(check bool) (name ^ ": same answer") true (cold = warm))
    [ Api.Sym_diff; Api.Intersection; Api.Footrule; Api.Kendall ]

(* --- transparency property (qcheck) --- *)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let queries db =
  Api.World (Api.Set_sym_diff, Api.Mean)
  :: Api.World (Api.Set_sym_diff, Api.Median)
  :: Api.Topk (2, Api.Sym_diff, Api.Mean)
  :: Api.Topk (2, Api.Kendall, Api.Mean)
  :: Api.Cluster { trials = 2; samples = None }
  :: (if Consensus_anxor.Db.scores_distinct db then [ Api.Rank Api.Rank_kendall ]
      else [])

let prop_cache_transparent =
  QCheck.Test.make
    ~name:"cache-enabled Api.run bit-identical to cache-off (jobs > 1)"
    ~count:15 arb_seed (fun seed ->
      let g = Prng.create ~seed () in
      let db = Gen.bid_db ~max_alts:3 g (2 + Prng.int g 5) in
      (* Cycle through capacities, including ones small enough to evict
         everything (the memoized tables are a few hundred bytes). *)
      let capacity =
        match seed mod 3 with
        | 0 -> 128 (* evicts every table: pure churn *)
        | 1 -> 2048 (* partial: some tables fit, some evict *)
        | _ -> Cache.default_capacity_bytes
      in
      Pool.with_pool ~jobs:3 (fun pool ->
          List.for_all
            (fun q ->
              Cache.set_enabled false;
              Cache.clear ();
              let off = Api.run ~pool db q in
              with_cache ~capacity (fun () ->
                  let cold = Api.run ~pool db q in
                  let warm = Api.run ~pool db q in
                  off = cold && off = warm))
            (queries db)))

let suite =
  [
    Alcotest.test_case "lru basic" `Quick test_lru_basic;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru oversized entry" `Quick test_lru_oversized;
    Alcotest.test_case "lru shrink/remove/clear" `Quick test_lru_shrink;
    Alcotest.test_case "cache disabled is a no-op" `Quick test_cache_disabled_noop;
    Alcotest.test_case "cache memo and stats" `Quick test_cache_memo_stats;
    Alcotest.test_case "cache keys distinct" `Quick test_cache_key_distinct;
    Alcotest.test_case "cache eviction under pressure" `Quick
      test_cache_eviction_under_pressure;
    Alcotest.test_case "cache concurrent memo" `Quick test_cache_concurrent_memo;
    QCheck_alcotest.to_alcotest prop_cache_transparent;
    Alcotest.test_case "warm top-k runs no kernels" `Quick test_warm_topk_runs_no_kernels;
  ]
