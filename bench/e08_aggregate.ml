(* E8 — §6.1 (Lemma 3, Theorem 5, Corollary 2): median group-by count
   answers by successive shortest paths with a group-level search, checked
   against Theorem 5's network solved through [Min_cost_flow]. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let correctness () =
  let g = Prng.create ~seed:801 () in
  let trials = if !Harness.quick then 10 else 30 in
  let exact = ref 0 and agree = ref 0 and worst_ratio = ref 1. in
  for _ = 1 to trials do
    let n = 3 + Prng.int g 4 and m = 2 + Prng.int g 3 in
    let probs = Gen.groupby_matrix g ~n ~m in
    let inst = Aggregate_consensus.create probs in
    let _, flow_counts = Aggregate_consensus.median inst in
    let brute_counts, _ = Exact.solve_aggregate probs Api.Median in
    let d_flow = Aggregate_consensus.expected_sq_dist inst flow_counts in
    let d_brute = Aggregate_consensus.expected_sq_dist inst brute_counts in
    if Fcmp.approx ~eps:1e-9 d_flow d_brute then incr exact;
    if d_brute > 1e-12 then worst_ratio := Float.max !worst_ratio (d_flow /. d_brute);
    let _, paper_counts = Aggregate_consensus.median_paper_network inst in
    if
      Fcmp.approx ~eps:1e-9
        (Aggregate_consensus.expected_sq_dist inst paper_counts)
        d_flow
    then incr agree
  done;
  (trials, !exact, !agree, !worst_ratio)

let run () =
  Harness.header "E8: median group-by aggregates (§6.1)";
  let trials, exact, agree, worst = correctness () in
  Harness.note "group-search median = brute-force median: %d/%d" exact trials;
  Harness.note "Theorem 5 lower-bound network agrees: %d/%d" agree trials;
  Harness.note
    "measured approximation ratio: %.4f (paper's Corollary 2 guarantees <= 4;\n\
     the bias-variance identity makes the closest possible vector exact)"
    worst;
  let table =
    Harness.Tables.create ~title:"scaling (ms per median)"
      [
        ("n tuples", Harness.Tables.Right);
        ("m groups", Harness.Tables.Right);
        ("median (group search)", Harness.Tables.Right);
        ("Theorem 5 network (solve_bounded)", Harness.Tables.Right);
      ]
  in
  let g = Prng.create ~seed:802 () in
  let configs =
    Harness.sizes
      ~quick_list:[ (100, 8); (200, 8); (600, 16) ]
      ~full_list:[ (100, 8); (400, 8); (600, 16); (400, 32); (1000, 32); (2000, 32) ]
  in
  List.iter
    (fun (n, m) ->
      let inst = Aggregate_consensus.create (Gen.groupby_matrix g ~n ~m) in
      let t_flow = Harness.time_only (fun () -> ignore (Aggregate_consensus.median inst)) in
      let t_paper =
        Harness.time_only (fun () -> ignore (Aggregate_consensus.median_paper_network inst))
      in
      Harness.Tables.add_row table
        [ string_of_int n; string_of_int m; Harness.ms t_flow; Harness.ms t_paper ])
    configs;
  Harness.Tables.print table;
  (* 600×16 is the aggregate op's shape in perfbench's kernel_mix *)
  let inst = Aggregate_consensus.create (Gen.groupby_matrix g ~n:600 ~m:16) in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  ignore (Aggregate_consensus.median inst);
  Harness.note "minor words of one median at 600x16: %.0f" (Gc.minor_words () -. w0)
