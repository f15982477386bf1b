(* E5 — Theorem 4: the median top-k dynamic program: optimality vs brute
   force and scaling in n and k. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let correctness () =
  let g = Prng.create ~seed:501 () in
  let trials = if !Harness.quick then 8 else 30 in
  let ok = ref 0 in
  for i = 1 to trials do
    let db =
      if i mod 2 = 0 then Gen.random_tree_db g (4 + Prng.int g 4)
      else Gen.random_keyed_tree g (4 + Prng.int g 4)
    in
    let ctx = Topk_consensus.make_ctx db ~k:2 in
    let median = Topk_consensus.median_sym_diff ctx in
    let _, best =
      Exact.solve (Exact.prepare db) (Api.Topk (2, Api.Sym_diff, Api.Median))
    in
    if
      Fcmp.approx ~eps:1e-9 best (Topk_consensus.expected_sym_diff ctx median)
    then incr ok
  done;
  (trials, !ok)

let run () =
  Harness.header "E5: median top-k dynamic program (Thm 4)";
  let trials, ok = correctness () in
  Harness.note "DP optimal vs enumerated possible answers: %d/%d" ok trials;
  let table =
    Harness.Tables.create ~title:"scaling (random and/xor trees)"
      [
        ("n leaves", Harness.Tables.Right);
        ("k", Harness.Tables.Right);
        ("ctx build (ms)", Harness.Tables.Right);
        ("median DP (ms)", Harness.Tables.Right);
      ]
  in
  let g = Prng.create ~seed:502 () in
  let configs =
    Harness.sizes
      ~quick_list:[ (50, 5); (100, 5) ]
      ~full_list:[ (50, 5); (100, 5); (200, 5); (200, 10); (400, 10) ]
  in
  List.iter
    (fun (n, k) ->
      let db = Gen.random_tree_db g n in
      let ctx, t_ctx = Harness.time_it (fun () -> Topk_consensus.make_ctx db ~k) in
      let t_dp = Harness.time_only (fun () -> ignore (Topk_consensus.median_sym_diff ctx)) in
      Harness.Tables.add_row table
        [ string_of_int n; string_of_int k; Harness.ms t_ctx; Harness.ms t_dp ])
    configs;
  Harness.Tables.print table
