(* E7 — §5.4/§5.5: footrule-exact mean via assignment, and the Kendall-tau
   approximations measured against exact optima on small instances. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let small_instance_ratios () =
  let g = Prng.create ~seed:701 () in
  let trials = if !Harness.quick then 6 else 20 in
  let fr_ok = ref 0 in
  let worst_pivot = ref 1. and worst_fr = ref 1. in
  let sum_pivot = ref 0. and sum_fr = ref 0. in
  for _ = 1 to trials do
    let db = Gen.random_tree_db g 5 in
    let ctx = Topk_consensus.make_ctx db ~k:2 in
    (* footrule exactness *)
    let fr = Topk_consensus.mean_footrule ctx in
    let t = Exact.prepare db in
    let _, best_fr = Exact.solve t (Api.Topk (2, Api.Footrule, Api.Mean)) in
    if Fcmp.approx ~eps:1e-9 best_fr (Topk_consensus.expected_footrule ctx fr) then
      incr fr_ok;
    (* kendall ratios *)
    let _, best_k = Exact.solve t (Api.Topk (2, Api.Kendall, Api.Mean)) in
    let ratio answer =
      let d = Topk_consensus.expected_kendall ctx answer in
      if best_k > 1e-12 then d /. best_k else 1.
    in
    let r_pivot = ratio (Topk_consensus.mean_kendall_pivot g ctx) in
    let r_fr = ratio (Topk_consensus.mean_kendall_footrule ctx) in
    worst_pivot := Float.max !worst_pivot r_pivot;
    worst_fr := Float.max !worst_fr r_fr;
    sum_pivot := !sum_pivot +. r_pivot;
    sum_fr := !sum_fr +. r_fr
  done;
  (trials, !fr_ok, !sum_pivot, !worst_pivot, !sum_fr, !worst_fr)

let run () =
  Harness.header "E7: footrule-exact mean and Kendall approximations (§5.4-§5.5)";
  let trials, fr_ok, sum_p, worst_p, sum_f, worst_f = small_instance_ratios () in
  Harness.note "footrule assignment optimal vs brute force: %d/%d" fr_ok trials;
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf
           "Kendall-tau mean: approximation ratios vs exact (n=5, k=2, %d instances)"
           trials)
      [
        ("method", Harness.Tables.Left);
        ("avg ratio", Harness.Tables.Right);
        ("worst ratio", Harness.Tables.Right);
        ("guarantee", Harness.Tables.Right);
      ]
  in
  Harness.Tables.add_row table
    [
      "pivot + local search (ACN KwikSort)";
      Printf.sprintf "%.4f" (sum_p /. float_of_int trials);
      Printf.sprintf "%.4f" worst_p;
      "O(1) exp.";
    ];
  Harness.Tables.add_row table
    [
      "footrule-optimal answer";
      Printf.sprintf "%.4f" (sum_f /. float_of_int trials);
      Printf.sprintf "%.4f" worst_f;
      "2 (equiv. class)";
    ];
  Harness.Tables.print table;
  (* larger instances: cross-metric comparison, exact evaluators *)
  let g = Prng.create ~seed:702 () in
  let n = if !Harness.quick then 40 else 100 in
  let k = 5 in
  let db = Gen.bid_db g n in
  let ctx = Topk_consensus.make_ctx db ~k in
  let t2 =
    Harness.Tables.create
      ~title:(Printf.sprintf "larger instance (BID n=%d, k=%d): E[dK] of each answer" n k)
      [ ("answer", Harness.Tables.Left); ("E[dK]", Harness.Tables.Right); ("time (ms)", Harness.Tables.Right) ]
  in
  List.iter
    (fun (name, f) ->
      let answer, t = Harness.time_it f in
      Harness.Tables.add_row t2
        [
          name;
          Printf.sprintf "%.4f" (Topk_consensus.expected_kendall ctx answer);
          Harness.ms t;
        ])
    [
      ("pivot + local search", fun () -> Topk_consensus.mean_kendall_pivot g ctx);
      ("footrule-optimal", fun () -> Topk_consensus.mean_kendall_footrule ctx);
      ("mean dΔ (PT-k)", fun () -> Topk_consensus.mean_sym_diff ctx);
    ];
  Harness.Tables.print t2
