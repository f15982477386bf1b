(* Property-based tests (qcheck): randomized invariants across libraries.
   Each property embeds its own seeded generator so shrinking stays
   meaningful (the qcheck seed selects a workload-generator seed). *)

open Consensus_util
open Consensus_anxor
open Consensus
module Gen = Consensus_workload.Gen
module Topk_list = Consensus_ranking.Topk_list

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let with_rng seed f = f (Prng.create ~seed ())

(* --- and/xor trees --- *)

let prop_marginals_are_probabilities =
  QCheck.Test.make ~name:"tree marginals lie in [0,1]" ~count:100 arb_seed
    (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (1 + Prng.int g 30) in
          List.init (Db.num_alts db) (fun i -> Db.marginal db i)
          |> List.for_all (Fcmp.is_probability ~eps:1e-9)))

let prop_pair_marginal_bounds =
  QCheck.Test.make ~name:"pair marginal <= min of singles (Fréchet)" ~count:60
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (2 + Prng.int g 12) in
          let n = Db.num_alts db in
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              let pij = Db.pair_marginal db i j in
              let mi = Db.marginal db i and mj = Db.marginal db j in
              if not (Fcmp.leq ~eps:1e-9 pij (Float.min mi mj)) then ok := false;
              (* Fréchet lower bound *)
              if not (Fcmp.geq ~eps:1e-9 pij (mi +. mj -. 1.)) then ok := false
            done
          done;
          !ok))

let prop_size_distribution_is_distribution =
  QCheck.Test.make ~name:"world-size generating function sums to 1" ~count:100
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (1 + Prng.int g 40) in
          let f = Marginals.size_distribution db in
          Fcmp.approx ~eps:1e-6 1. (Consensus_poly.Poly1.sum_coeffs f)))

let prop_rank_dist_sums_to_key_topk =
  QCheck.Test.make ~name:"rank distribution sums to Pr(r<=k) <= Pr(present)"
    ~count:60 arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (2 + Prng.int g 10) in
          let k = 1 + Prng.int g 4 in
          Array.for_all
            (fun key ->
              let leq = Marginals.rank_leq db key ~k in
              Fcmp.is_probability ~eps:1e-9 leq
              && Fcmp.leq ~eps:1e-9 leq (Db.key_marginal db key))
            (Db.keys db)))

let prop_beats_antisymmetric =
  QCheck.Test.make ~name:"beats(i,j) + beats(j,i) <= 1" ~count:40 arb_seed
    (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_keyed_tree g (3 + Prng.int g 8) in
          let keys = Db.keys db in
          let ok = ref true in
          Array.iter
            (fun k1 ->
              Array.iter
                (fun k2 ->
                  if k1 <> k2 then begin
                    let b12 = Marginals.beats db k1 k2 in
                    let b21 = Marginals.beats db k2 k1 in
                    if not (Fcmp.leq ~eps:1e-9 (b12 +. b21) 1.) then ok := false
                  end)
                keys)
            keys;
          !ok))

(* --- set consensus --- *)

let prop_mean_world_beats_random_subsets =
  QCheck.Test.make ~name:"Thm 2 mean world beats random subsets" ~count:60
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (2 + Prng.int g 15) in
          let mean = Set_consensus.mean_sym_diff db in
          let d_mean = Set_consensus.expected_sym_diff db mean in
          let ok = ref true in
          for _ = 1 to 10 do
            let w =
              List.init (Db.num_alts db) Fun.id
              |> List.filter (fun _ -> Prng.bool g)
            in
            if Set_consensus.expected_sym_diff db w < d_mean -. 1e-9 then ok := false
          done;
          !ok))

let prop_median_world_beats_sampled_worlds =
  QCheck.Test.make ~name:"median world beats sampled possible worlds" ~count:40
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (2 + Prng.int g 15) in
          let median = Set_consensus.median_sym_diff db in
          let d_median = Set_consensus.expected_sym_diff db median in
          let ok = ref true in
          for _ = 1 to 10 do
            let w = Worlds.sample g (Db.arena db) in
            if Set_consensus.expected_sym_diff db w < d_median -. 1e-9 then
              ok := false
          done;
          !ok))

let prop_jaccard_in_unit_interval =
  QCheck.Test.make ~name:"expected Jaccard distance lies in [0,1]" ~count:40
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_tree_db g (1 + Prng.int g 10) in
          let w =
            List.init (Db.num_alts db) Fun.id |> List.filter (fun _ -> Prng.bool g)
          in
          let d = Set_consensus.expected_jaccard db w in
          d >= -1e-9 && d <= 1. +. 1e-9))

(* --- top-k consensus --- *)

let prop_topk_mean_beats_sampled_lists =
  QCheck.Test.make ~name:"Thm 3 mean beats random size-k lists" ~count:30
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let n = 4 + Prng.int g 8 in
          let db = Gen.bid_db g n in
          let k = 1 + Prng.int g 3 in
          let ctx = Topk_consensus.make_ctx db ~k in
          let mean = Topk_consensus.mean_sym_diff ctx in
          let d_mean = Topk_consensus.expected_sym_diff ctx mean in
          let keys = Db.keys db in
          let ok = ref true in
          for _ = 1 to 10 do
            let perm = Array.copy keys in
            Prng.shuffle g perm;
            let cand = Array.sub perm 0 k in
            if Topk_consensus.expected_sym_diff ctx cand < d_mean -. 1e-9 then
              ok := false
          done;
          !ok))

let prop_topk_evaluator_consistency =
  QCheck.Test.make ~name:"evaluators agree with enumeration (random dbs)"
    ~count:20 arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.random_keyed_tree g (3 + Prng.int g 4) in
          let k = 2 in
          let ctx = Topk_consensus.make_ctx db ~k in
          let keys = Db.keys db in
          let perm = Array.copy keys in
          Prng.shuffle g perm;
          let tau = Array.sub perm 0 (min k (Array.length perm)) in
          let close a b = Fcmp.approx ~eps:1e-6 a b in
          let t = Consensus_oracle.Exact.prepare db in
          let enum metric =
            Consensus_oracle.Exact.(
              expected t (Api.Topk (k, metric, Api.Mean)) (Topk tau))
          in
          close (Topk_consensus.expected_sym_diff ctx tau) (enum Api.Sym_diff)
          && close (Topk_consensus.expected_footrule ctx tau) (enum Api.Footrule)
          && close (Topk_consensus.expected_kendall ctx tau) (enum Api.Kendall)))

let prop_assignment_metrics_never_worse_than_greedy =
  QCheck.Test.make
    ~name:"assignment optimizers beat the PT-k list on their own metric"
    ~count:30 arb_seed (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.bid_db g (5 + Prng.int g 10) in
          let k = 2 + Prng.int g 3 in
          let ctx = Topk_consensus.make_ctx db ~k in
          let ptk = Topk_consensus.mean_sym_diff ctx in
          Topk_consensus.expected_intersection ctx (Topk_consensus.mean_intersection ctx)
          <= Topk_consensus.expected_intersection ctx ptk +. 1e-9
          && Topk_consensus.expected_footrule ctx (Topk_consensus.mean_footrule ctx)
             <= Topk_consensus.expected_footrule ctx ptk +. 1e-9))

(* --- top-k list metrics --- *)

let arb_two_lists =
  QCheck.make
    ~print:(fun (a, b, _) ->
      Printf.sprintf "%s / %s"
        (String.concat ";" (List.map string_of_int (Array.to_list a)))
        (String.concat ";" (List.map string_of_int (Array.to_list b))))
    QCheck.Gen.(
      let list_gen =
        int_range 1 4 >>= fun len ->
        let rec pick acc n =
          if n = 0 then return (Array.of_list acc)
          else
            int_range 0 7 >>= fun x ->
            if List.mem x acc then pick acc n else pick (x :: acc) (n - 1)
        in
        pick [] len
      in
      triple list_gen list_gen list_gen)

let prop_metrics_symmetric =
  QCheck.Test.make ~name:"top-k metrics are symmetric" ~count:200 arb_two_lists
    (fun (a, b, _) ->
      let k = 4 in
      Fcmp.approx (Topk_list.sym_diff ~k a b) (Topk_list.sym_diff ~k b a)
      && Fcmp.approx (Topk_list.intersection ~k a b) (Topk_list.intersection ~k b a)
      && Fcmp.approx (Topk_list.footrule ~k a b) (Topk_list.footrule ~k b a)
      && Fcmp.approx (Topk_list.kendall ~k a b) (Topk_list.kendall ~k b a))

let prop_metrics_identity =
  QCheck.Test.make ~name:"top-k metrics vanish on identical lists" ~count:200
    arb_two_lists (fun (a, _, _) ->
      let k = 4 in
      Topk_list.sym_diff ~k a a = 0.
      && Topk_list.intersection ~k a a = 0.
      && Topk_list.footrule ~k a a = 0.
      && Topk_list.kendall ~k a a = 0.)

let prop_footrule_triangle =
  QCheck.Test.make ~name:"footrule triangle inequality" ~count:300 arb_two_lists
    (fun (a, b, c) ->
      let k = 4 in
      Topk_list.footrule ~k a c
      <= Topk_list.footrule ~k a b +. Topk_list.footrule ~k b c +. 1e-9)

let prop_symdiff_triangle =
  QCheck.Test.make ~name:"symmetric difference triangle inequality" ~count:300
    arb_two_lists (fun (a, b, c) ->
      let k = 4 in
      Topk_list.sym_diff ~k a c
      <= Topk_list.sym_diff ~k a b +. Topk_list.sym_diff ~k b c +. 1e-9)

(* --- aggregates --- *)

let prop_aggregate_median_beats_sampled_worlds =
  QCheck.Test.make ~name:"aggregate median beats sampled possible vectors"
    ~count:40 arb_seed (fun seed ->
      with_rng seed (fun g ->
          let n = 2 + Prng.int g 8 and m = 2 + Prng.int g 4 in
          let inst = Aggregate_consensus.create (Gen.groupby_matrix g ~n ~m) in
          let _, counts = Aggregate_consensus.median inst in
          let d_med = Aggregate_consensus.expected_sq_dist inst counts in
          let probs = Aggregate_consensus.probs inst in
          let ok = ref true in
          for _ = 1 to 10 do
            (* sample a possible world: pick a group per tuple *)
            let assignment =
              Array.map (fun row -> Prng.categorical g row) probs
            in
            let c = Aggregate_consensus.counts_of_assignment inst assignment in
            if Aggregate_consensus.expected_sq_dist inst c < d_med -. 1e-9 then
              ok := false
          done;
          !ok))

let prop_aggregate_mean_minimizes =
  QCheck.Test.make ~name:"aggregate mean beats perturbed vectors" ~count:40
    arb_seed (fun seed ->
      with_rng seed (fun g ->
          let n = 2 + Prng.int g 8 and m = 2 + Prng.int g 4 in
          let inst = Aggregate_consensus.create (Gen.groupby_matrix g ~n ~m) in
          let r_bar = Aggregate_consensus.mean inst in
          let d0 = Aggregate_consensus.expected_sq_dist inst r_bar in
          let ok = ref true in
          for _ = 1 to 10 do
            let c = Array.map (fun v -> v +. Prng.gaussian g ~mean:0. ~stddev:0.5) r_bar in
            if Aggregate_consensus.expected_sq_dist inst c < d0 -. 1e-9 then ok := false
          done;
          !ok))

(* --- clustering --- *)

let prop_cluster_weights_are_probabilities =
  QCheck.Test.make ~name:"clustering weights lie in [0,1]" ~count:40 arb_seed
    (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.clustering_db g (2 + Prng.int g 8) in
          let t = Cluster_consensus.make db in
          let nk = Cluster_consensus.num_keys t in
          let ok = ref true in
          for i = 0 to nk - 1 do
            for j = 0 to nk - 1 do
              if not (Fcmp.is_probability ~eps:1e-9 (Cluster_consensus.weight t i j))
              then ok := false
            done
          done;
          !ok))

let prop_local_search_stable_point =
  QCheck.Test.make ~name:"cluster local search is idempotent" ~count:30 arb_seed
    (fun seed ->
      with_rng seed (fun g ->
          let db = Gen.clustering_db g (3 + Prng.int g 6) in
          let t = Cluster_consensus.make db in
          let c1 = Cluster_consensus.local_search t (Cluster_consensus.pivot g t) in
          let c2 = Cluster_consensus.local_search t c1 in
          Fcmp.approx ~eps:1e-9
            (Cluster_consensus.expected_dist t c1)
            (Cluster_consensus.expected_dist t c2)))

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) t)
    [
      prop_marginals_are_probabilities;
      prop_pair_marginal_bounds;
      prop_size_distribution_is_distribution;
      prop_rank_dist_sums_to_key_topk;
      prop_beats_antisymmetric;
      prop_mean_world_beats_random_subsets;
      prop_median_world_beats_sampled_worlds;
      prop_jaccard_in_unit_interval;
      prop_topk_mean_beats_sampled_lists;
      prop_topk_evaluator_consistency;
      prop_assignment_metrics_never_worse_than_greedy;
      prop_metrics_symmetric;
      prop_metrics_identity;
      prop_footrule_triangle;
      prop_symdiff_triangle;
      prop_aggregate_median_beats_sampled_worlds;
      prop_aggregate_mean_minimizes;
      prop_cluster_weights_are_probabilities;
      prop_local_search_stable_point;
    ]
