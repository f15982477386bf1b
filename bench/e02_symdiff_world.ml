(* E2 — Theorem 2 / Corollary 1: consensus worlds under symmetric
   difference: optimality vs brute force, and linear-time scaling. *)

open Consensus_util
open Consensus_anxor
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let correctness () =
  let g = Prng.create ~seed:201 () in
  let trials = if !Harness.quick then 10 else 40 in
  let mean_ok = ref 0 and median_ok = ref 0 in
  for _ = 1 to trials do
    let db = Gen.random_tree_db g (4 + Prng.int g 7) in
    let mean = Set_consensus.mean_sym_diff db in
    let t = Exact.prepare db in
    let _, best_mean = Exact.solve t (Api.World (Api.Set_sym_diff, Api.Mean)) in
    if Fcmp.approx ~eps:1e-9 best_mean (Set_consensus.expected_sym_diff db mean)
    then incr mean_ok;
    let median = Set_consensus.median_sym_diff db in
    let _, best_median = Exact.solve t (Api.World (Api.Set_sym_diff, Api.Median)) in
    if Fcmp.approx ~eps:1e-9 best_median (Set_consensus.expected_sym_diff db median)
    then incr median_ok
  done;
  (trials, !mean_ok, !median_ok)

let run () =
  Harness.header "E2: mean/median world under symmetric difference (Thm 2, Cor 1)";
  let trials, mean_ok, median_ok = correctness () in
  Harness.note "mean world optimal (vs all 2^n subsets): %d/%d" mean_ok trials;
  Harness.note "median world DP optimal (vs possible worlds): %d/%d" median_ok trials;
  let table =
    Harness.Tables.create ~title:"scaling (random and/xor trees)"
      [
        ("n leaves", Harness.Tables.Right);
        ("mean world (ms)", Harness.Tables.Right);
        ("median world DP (ms)", Harness.Tables.Right);
      ]
  in
  let g = Prng.create ~seed:202 () in
  let ns =
    Harness.sizes ~quick_list:[ 1_000; 10_000 ]
      ~full_list:[ 1_000; 10_000; 50_000; 100_000; 200_000 ]
  in
  List.iter
    (fun n ->
      let db = Gen.random_tree_db ~max_depth:14 g n in
      let t_mean = Harness.time_only (fun () -> ignore (Set_consensus.mean_sym_diff db)) in
      let t_median =
        Harness.time_only (fun () -> ignore (Set_consensus.median_sym_diff db))
      in
      Harness.Tables.add_row table
        [ string_of_int (Db.num_alts db); Harness.ms t_mean; Harness.ms t_median ])
    ns;
  Harness.Tables.print table
