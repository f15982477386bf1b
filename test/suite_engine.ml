(* Engine tests: pool lifecycle, exception propagation, bit-identical results
   across jobs settings, and the [Consensus.Api] facade. *)

open Consensus_util
open Consensus_anxor
open Consensus
module Pool = Consensus_engine.Pool
module Task = Consensus_engine.Task
module Metrics = Consensus_engine.Metrics
module Gen = Consensus_workload.Gen

let jobs_grid = [ 1; 2; 4 ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- pool lifecycle --- *)

let test_pool_sizes () =
  Pool.with_pool ~jobs:1 (fun p -> Alcotest.(check int) "jobs 1" 1 (Pool.jobs p));
  Pool.with_pool ~jobs:4 (fun p -> Alcotest.(check int) "jobs 4" 4 (Pool.jobs p));
  Pool.with_pool ~jobs:0 (fun p ->
      Alcotest.(check bool) "auto >= 1" true (Pool.jobs p >= 1))

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* Submission to a retired pool completes inline instead of raising. *)
  let t = Pool.submit p (fun () -> 6 * 7) in
  Alcotest.(check bool) "inline task done" true (Task.is_done t);
  Alcotest.(check int) "inline task value" 42 (Task.await t);
  let r = Pool.parallel_init ~pool:p 8 (fun i -> i * i) in
  Alcotest.(check (array int)) "combinator on retired pool"
    (Array.init 8 (fun i -> i * i))
    r

(* Regression (set_global_jobs race): a domain still holding the retired
   global pool must keep computing correct results while another domain
   resizes the global pool underneath it — previously this raised
   [Invalid_argument "Pool.submit: pool is shut down"]. *)
let test_global_resize_race () =
  Pool.set_global_jobs 2;
  let stop = Atomic.make false in
  let failures = Atomic.make 0 in
  let worker =
    Domain.spawn (fun () ->
        let expected = Array.init 64 (fun i -> (2 * i) + 1) in
        while not (Atomic.get stop) do
          let pool = Pool.get_global () in
          let r =
            try Pool.parallel_init ~pool 64 (fun i -> (2 * i) + 1)
            with _ ->
              Atomic.incr failures;
              [||]
          in
          if r <> [||] && r <> expected then Atomic.incr failures
        done)
  in
  for jobs = 1 to 40 do
    Pool.set_global_jobs (1 + (jobs mod 3))
  done;
  Atomic.set stop true;
  Domain.join worker;
  Pool.set_global_jobs 0;
  Alcotest.(check int) "no raced submissions failed" 0 (Atomic.get failures)

let test_submit_and_await () =
  Pool.with_pool ~jobs:2 (fun p ->
      let t = Pool.submit p (fun () -> 6 * 7) in
      Alcotest.(check int) "value" 42 (Task.await t);
      Alcotest.(check bool) "done" true (Task.is_done t);
      let f = Pool.submit p (fun () -> failwith "worker boom") in
      Alcotest.check_raises "exn rethrown" (Failure "worker boom") (fun () ->
          ignore (Task.await f)))

let test_task_single_assignment () =
  let t = Task.create () in
  Alcotest.(check bool) "pending" false (Task.is_done t);
  Task.run t (fun () -> 1);
  Alcotest.(check bool) "filled twice rejected" true
    (try
       Task.run t (fun () -> 2);
       false
     with Invalid_argument _ -> true)

let test_global_pool_resize () =
  Pool.set_global_jobs 2;
  Alcotest.(check int) "global resized" 2 (Pool.jobs (Pool.get_global ()));
  Alcotest.(check bool) "resolve None is global" true
    (Pool.resolve None == Pool.get_global ());
  Pool.set_global_jobs 0;
  Alcotest.(check bool) "auto >= 1" true (Pool.jobs (Pool.get_global ()) >= 1)

(* --- combinators --- *)

let test_parallel_init_matches_sequential () =
  let n = 257 in
  let f i = (i * i) - (3 * i) in
  let expect = Array.init n f in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array int))
            (Printf.sprintf "init jobs=%d" jobs)
            expect
            (Pool.parallel_init ~pool n f)))
    jobs_grid

let test_parallel_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> float_of_int i /. 7.) in
  let f x = sin x *. x in
  let expect = Array.map f xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check (array (float 0.)))
            (Printf.sprintf "map jobs=%d" jobs)
            expect
            (Pool.parallel_map ~pool f xs)))
    jobs_grid

let test_empty_and_tiny_inputs () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "n=0" [||] (Pool.parallel_init ~pool 0 Fun.id);
      Alcotest.(check (array int)) "n=1" [| 0 |] (Pool.parallel_init ~pool 1 Fun.id))

let test_exception_propagates_from_chunk () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "first failure rethrown" (Failure "chunk boom")
        (fun () ->
          ignore
            (Pool.parallel_init ~pool 64 (fun i ->
                 if i = 37 then failwith "chunk boom" else i)));
      (* the pool survives a failed combinator call *)
      Alcotest.(check (array int))
        "pool usable after failure"
        (Array.init 8 Fun.id)
        (Pool.parallel_init ~pool 8 Fun.id))

(* Regression: a raising task must leave the queue-depth gauge at zero (and
   the worker alive).  A worker killed by the exception would strand the
   tasks queued behind it and pin the gauge above zero. *)
let test_queue_depth_gauge_after_raise () =
  let module Obs = Consensus_obs.Obs in
  let gauge = Obs.Gauge.make "engine_queue_depth" in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
  @@ fun () ->
  Pool.with_pool ~jobs:4 (fun pool ->
      (try
         ignore
           (Pool.parallel_init ~pool 64 (fun i ->
                if i mod 7 = 0 then failwith "gauge boom" else i))
       with Failure _ -> ());
      (* Raw submissions that raise inside [Task.run] drain too. *)
      let t = Pool.submit pool (fun () -> failwith "task boom") in
      (try ignore (Task.await t) with Failure _ -> ());
      (* Every queued task was popped: the gauge's last write is zero, and
         the workers still serve new work. *)
      Alcotest.(check (float 0.)) "gauge drained to zero" 0. (Obs.Gauge.value gauge);
      Alcotest.(check (array int))
        "workers survive raising tasks"
        (Array.init 16 Fun.id)
        (Pool.parallel_init ~pool 16 Fun.id));
  Alcotest.(check (float 0.)) "gauge still zero after shutdown" 0.
    (Obs.Gauge.value gauge)

let test_nested_combinators () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let expect = Array.init 6 (fun i -> 10 * i * (i - 1) / 2) in
      let got =
        Pool.parallel_init ~pool 6 (fun i ->
            Array.fold_left ( + ) 0 (Pool.parallel_init ~pool i (fun j -> 10 * j)))
      in
      Alcotest.(check (array int)) "nested init" expect got)

let test_metrics_recorded () =
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Pool.parallel_init ~pool ~stage:"unit_test_stage" 40 Fun.id);
      let stages = Metrics.snapshot (Pool.metrics pool) in
      match List.find_opt (fun s -> s.Metrics.name = "unit_test_stage") stages with
      | None -> Alcotest.fail "stage not recorded"
      | Some s ->
          Alcotest.(check int) "calls" 1 s.Metrics.calls;
          Alcotest.(check int) "tasks" 40 s.Metrics.tasks;
          Alcotest.(check bool) "chunks covered" true
            (s.Metrics.by_caller + s.Metrics.by_worker = s.Metrics.chunks);
          Alcotest.(check bool) "table mentions stage" true
            (contains ~sub:"unit_test_stage"
               (Format.asprintf "%a" Metrics.pp (Pool.metrics pool))))

(* --- facade --- *)

let small_db seed = Gen.bid_db (Prng.create ~seed ()) 8

let test_api_topk_matches_module () =
  let db = small_db 7 in
  Pool.with_pool ~jobs:2 (fun pool ->
      let ctx = Topk_consensus.make_ctx ~pool db ~k:3 in
      match Api.run ~pool db (Api.Topk (3, Api.Sym_diff, Api.Mean)) with
      | Api.Topk_answer { keys; expected } ->
          Alcotest.(check (array int))
            "facade = module" (Topk_consensus.mean_sym_diff ctx) keys;
          Alcotest.(check (float 1e-9))
            "expected symdiff"
            (Topk_consensus.expected_sym_diff ctx keys)
            (List.assoc "symdiff" expected)
      | _ -> Alcotest.fail "wrong answer variant")

let test_api_median_unsupported () =
  let db = small_db 11 in
  List.iter
    (fun metric ->
      Alcotest.(check bool) "raises Unsupported" true
        (try
           ignore (Api.run db (Api.Topk (3, metric, Api.Median)));
           false
         with Api.Unsupported msg -> contains ~sub:"median not supported" msg))
    [ Api.Intersection; Api.Footrule; Api.Kendall ]

let test_api_families_smoke () =
  let db = small_db 23 in
  Pool.with_pool ~jobs:2 (fun pool ->
      (match Api.run ~pool db (Api.World (Api.Set_sym_diff, Api.Median)) with
      | Api.World_answer { expected; _ } ->
          Alcotest.(check bool) "world metrics" true (List.mem_assoc "jaccard" expected)
      | _ -> Alcotest.fail "wrong variant");
      (match Api.run ~pool db (Api.Rank Api.Rank_footrule) with
      | Api.Rank_answer { keys; _ } ->
          Alcotest.(check int) "rank is permutation" (Db.num_keys db) (Array.length keys)
      | _ -> Alcotest.fail "wrong variant");
      (match
         Api.run ~pool db (Api.Aggregate ([| [| 0.5; 0.5 |]; [| 1.0; 0.0 |] |], Api.Mean))
       with
      | Api.Aggregate_answer { counts; _ } ->
          Alcotest.(check int) "groups" 2 (Array.length counts)
      | _ -> Alcotest.fail "wrong variant");
      match Api.run ~pool db (Api.Cluster { trials = 4; samples = Some 8 }) with
      | Api.Cluster_answer { labels; expected } ->
          Alcotest.(check int) "labels per key" (Db.num_keys db) (Array.length labels);
          Alcotest.(check bool) "distance nonneg" true
            (List.assoc "disagreements" expected >= 0.)
      | _ -> Alcotest.fail "wrong variant")

(* --- jobs-invariance properties --- *)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let on_jobs_grid f =
  let results = List.map (fun jobs -> Pool.with_pool ~jobs f) jobs_grid in
  List.for_all (fun r -> r = List.hd results) results

let prop_parallel_map_jobs_invariant =
  QCheck.Test.make ~name:"parallel_map is jobs-invariant" ~count:50 arb_seed
    (fun seed ->
      let g = Prng.create ~seed () in
      let xs = Array.init (1 + Prng.int g 200) (fun _ -> Prng.float g 1.) in
      on_jobs_grid (fun pool ->
          Pool.parallel_map ~pool (fun x -> log1p x *. cos x) xs))

let prop_rank_table_jobs_invariant =
  QCheck.Test.make ~name:"rank_table is jobs-invariant (bit-identical)" ~count:20
    arb_seed (fun seed ->
      let db = Gen.random_keyed_tree (Prng.create ~seed ()) 7 in
      let k = 1 + (seed mod 4) in
      on_jobs_grid (fun pool -> Marginals.rank_table_slow ~pool db ~k))

let prop_kendall_jobs_invariant =
  QCheck.Test.make ~name:"mean_kendall_pivot is jobs-invariant" ~count:10 arb_seed
    (fun seed ->
      let db = Gen.bid_db (Prng.create ~seed ()) 7 in
      on_jobs_grid (fun pool ->
          let ctx = Topk_consensus.make_ctx ~pool db ~k:3 in
          let tau = Topk_consensus.mean_kendall_pivot (Prng.create ~seed ()) ctx in
          (tau, Topk_consensus.expected_kendall ctx tau)))

(* A fresh ctx builds its full rank table on the pool inside
   [mean_footrule]: the BID sweep and the general tree's per-key map must
   both give the same answer on every jobs setting. *)
let prop_rank_footrule_jobs_invariant =
  QCheck.Test.make ~name:"rank mean_footrule is jobs-invariant" ~count:10 arb_seed
    (fun seed ->
      let g = Prng.create ~seed () in
      List.for_all
        (fun db ->
          on_jobs_grid (fun pool ->
              Rank_consensus.mean_footrule (Rank_consensus.make_ctx ~pool db)))
        [ Gen.bid_db g 12; Gen.random_keyed_tree g 9 ])

let prop_cluster_sampling_jobs_invariant =
  QCheck.Test.make ~name:"best_of_worlds is jobs-invariant" ~count:10 arb_seed
    (fun seed ->
      let db = Gen.bid_db (Prng.create ~seed ()) 6 in
      on_jobs_grid (fun pool ->
          let t = Cluster_consensus.make ~pool db in
          Cluster_consensus.normalize
            (Cluster_consensus.best_of_worlds (Prng.create ~seed ()) ~samples:12 t)))

let suite =
  [
    Alcotest.test_case "pool sizes" `Quick test_pool_sizes;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "global resize race" `Quick test_global_resize_race;
    Alcotest.test_case "submit and await" `Quick test_submit_and_await;
    Alcotest.test_case "task single assignment" `Quick test_task_single_assignment;
    Alcotest.test_case "global pool resize" `Quick test_global_pool_resize;
    Alcotest.test_case "parallel_init = Array.init" `Quick
      test_parallel_init_matches_sequential;
    Alcotest.test_case "parallel_map = Array.map" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "empty and tiny inputs" `Quick test_empty_and_tiny_inputs;
    Alcotest.test_case "chunk exception propagates" `Quick
      test_exception_propagates_from_chunk;
    Alcotest.test_case "queue-depth gauge after raising task" `Quick
      test_queue_depth_gauge_after_raise;
    Alcotest.test_case "nested combinators" `Quick test_nested_combinators;
    Alcotest.test_case "metrics recorded" `Quick test_metrics_recorded;
    Alcotest.test_case "api topk matches module" `Quick test_api_topk_matches_module;
    Alcotest.test_case "api median unsupported" `Quick test_api_median_unsupported;
    Alcotest.test_case "api families smoke" `Quick test_api_families_smoke;
    QCheck_alcotest.to_alcotest prop_parallel_map_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_rank_table_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_kendall_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_rank_footrule_jobs_invariant;
    QCheck_alcotest.to_alcotest prop_cluster_sampling_jobs_invariant;
  ]
