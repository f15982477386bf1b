(* E3 — §4.2: Jaccard-distance consensus worlds: Lemma 1 evaluator, Lemma 2
   prefix optimality, BID median agreement, and O(n²)/O(n³) scaling. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let correctness () =
  let g = Prng.create ~seed:301 () in
  let trials = if !Harness.quick then 8 else 30 in
  let mean_ok = ref 0 and bid_ok = ref 0 and bid_trials = ref 0 in
  for _ = 1 to trials do
    let db = Gen.independent_db g (3 + Prng.int g 5) in
    let mean = Set_consensus.mean_jaccard db in
    let _, best =
      Exact.solve (Exact.prepare db) (Api.World (Api.Set_jaccard, Api.Mean))
    in
    if Fcmp.approx ~eps:1e-9 best (Set_consensus.expected_jaccard db mean) then
      incr mean_ok
  done;
  for _ = 1 to trials do
    let db = Gen.bid_db ~max_alts:2 g (2 + Prng.int g 4) in
    incr bid_trials;
    let med = Set_consensus.median_jaccard_bid db in
    let _, best =
      Exact.solve (Exact.prepare db) (Api.World (Api.Set_jaccard, Api.Median))
    in
    if Fcmp.approx ~eps:1e-9 best (Set_consensus.expected_jaccard db med) then
      incr bid_ok
  done;
  (trials, !mean_ok, !bid_trials, !bid_ok)

let run () =
  Harness.header "E3: Jaccard consensus worlds (Lemmas 1-2, BID median)";
  let trials, mean_ok, bid_trials, bid_ok = correctness () in
  Harness.note "independent mean world (prefix alg) optimal: %d/%d" mean_ok trials;
  Harness.note
    "BID median (best-alternative prefix sketch) exact: %d/%d (see DESIGN.md §3)"
    bid_ok bid_trials;
  let table =
    Harness.Tables.create ~title:"scaling (tuple-independent databases)"
      [
        ("n tuples", Harness.Tables.Right);
        ("E[dJ] one world (ms)", Harness.Tables.Right);
        ("mean world, all prefixes (ms)", Harness.Tables.Right);
      ]
  in
  let g = Prng.create ~seed:302 () in
  let ns = Harness.sizes ~quick_list:[ 20; 50 ] ~full_list:[ 25; 50; 100; 200; 300 ] in
  List.iter
    (fun n ->
      let db = Gen.independent_db g n in
      let w = List.init (n / 2) (fun i -> 2 * i) in
      let t_eval =
        Harness.time_only (fun () -> ignore (Set_consensus.expected_jaccard db w))
      in
      let t_mean = Harness.time_only (fun () -> ignore (Set_consensus.mean_jaccard db)) in
      Harness.Tables.add_row table
        [ string_of_int n; Harness.ms t_eval; Harness.ms t_mean ])
    ns;
  Harness.Tables.print table
