(* E7 — §5.4/§5.5: footrule-exact mean via assignment, and the Kendall-tau
   approximations measured against exact optima on small instances. *)

open Consensus_util
open Consensus
open Consensus_anxor
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact
module Pool = Consensus_engine.Pool

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
    let r_fr = ratio (Topk_consensus.mean_footrule ctx) in
    worst_pivot := Float.max !worst_pivot r_pivot;
    worst_fr := Float.max !worst_fr r_fr;
    sum_pivot := !sum_pivot +. r_pivot;
    sum_fr := !sum_fr +. r_fr
  done;
  (trials, !fr_ok, !sum_pivot, !worst_pivot, !sum_fr, !worst_fr)

(* The pair-by-pair top-k Kendall evaluator: one ordered joint per
   (τ-earlier, later-or-outside) key pair, k·(n − k) + k(k−1)/2 trivariate
   kernel runs.  [Topk_consensus.expected_kendall] reads an answer key's
   outside pairs from one O(n·k) size-conditioned total instead. *)
let kendall_pairwise ctx tau =
  let db = Topk_consensus.db ctx and k = Topk_consensus.k ctx in
  let contribution i j =
    Topk_consensus.rank_leq ctx j -. Marginals.topk_pair_prob_ordered db i j ~k
  in
  let acc = ref 0. in
  Array.iteri
    (fun a i ->
      for b = a + 1 to Array.length tau - 1 do
        acc := !acc +. contribution i tau.(b)
      done;
      Array.iter
        (fun j -> if not (Array.mem j tau) then acc := !acc +. contribution i j)
        (Db.keys db))
    tau;
  !acc

(* Expected Kendall distance of one answer at k = 10 on [Gen.bid_db] of
   growing size, both evaluators on one domain, the context (rank table)
   built outside the timing.  Unpinned: it shows the exponent in n. *)
let kendall_scaling () =
  let k = 10 in
  let sizes = Harness.sizes ~quick_list:[ 20; 40 ] ~full_list:[ 100; 200; 400; 800 ] in
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "top-k Kendall evaluator on Gen.bid_db, k=%d (one domain)" k)
      [
        ("keys", Harness.Tables.Right);
        ("pairwise (ms)", Harness.Tables.Right);
        ("O_i identity (ms)", Harness.Tables.Right);
        ("|gap|", Harness.Tables.Right);
      ]
  in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let points =
    List.map
      (fun n ->
        let db = Gen.bid_db (Prng.create ~seed:(700 + n) ()) n in
        let ctx = Topk_consensus.make_ctx ~pool db ~k in
        let tau = Topk_consensus.mean_sym_diff ctx in
        (* the context's joint table is still empty here *)
        let d_new, t_new =
          Harness.time_it (fun () -> Topk_consensus.expected_kendall ctx tau)
        in
        let d_old, t_old = Harness.time_it (fun () -> kendall_pairwise ctx tau) in
        Harness.Tables.add_row table
          [
            string_of_int n;
            Harness.ms t_old;
            Harness.ms t_new;
            Printf.sprintf "%.1e" (Float.abs (d_new -. d_old));
          ];
        (n, t_old, t_new))
      sizes
  in
  Harness.Tables.print table;
  Harness.note "log-log slope in n: pairwise %.2f, O_i identity %.2f"
    (Harness.slope (List.map (fun (n, t, _) -> (n, t)) points))
    (Harness.slope (List.map (fun (n, _, t) -> (n, t)) points))

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
      ("footrule-optimal", fun () -> Topk_consensus.mean_footrule ctx);
      ("mean dΔ (PT-k)", fun () -> Topk_consensus.mean_sym_diff ctx);
    ];
  Harness.Tables.print t2;
  kendall_scaling ()
