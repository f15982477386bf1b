(* E13 — extension (§7 future work): consensus *complete* rankings.  The
   mean under Spearman's footrule is an n×n assignment; the mean under
   Kendall's tau is weighted Kemeny aggregation on the pairwise
   disagreement tournament. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let correctness () =
  let g = Prng.create ~seed:1301 () in
  let trials = if !Harness.quick then 6 else 20 in
  let fr_ok = ref 0 and kem_ok = ref 0 in
  let worst_pivot = ref 1. and sum_pivot = ref 0. in
  let worst_fr = ref 1. and sum_fr = ref 0. in
  for _ = 1 to trials do
    let db = Gen.random_tree_db g (3 + Prng.int g 3) in
    let ctx = Rank_consensus.make_ctx db in
    let _, d_fr = Rank_consensus.mean_footrule ctx in
    let t = Exact.prepare db in
    let _, best_fr = Exact.solve t (Api.Rank Api.Rank_footrule) in
    if Fcmp.approx ~eps:1e-9 best_fr d_fr then incr fr_ok;
    let _, d_kem = Rank_consensus.mean_kendall_exact ctx in
    let _, best_kem = Exact.solve t (Api.Rank Api.Rank_kendall) in
    if Fcmp.approx ~eps:1e-9 best_kem d_kem then incr kem_ok;
    let ratio d = if best_kem > 1e-12 then d /. best_kem else 1. in
    let _, d_piv = Rank_consensus.mean_kendall_pivot g ctx in
    sum_pivot := !sum_pivot +. ratio d_piv;
    worst_pivot := Float.max !worst_pivot (ratio d_piv);
    let _, d_frk = Rank_consensus.mean_kendall_via_footrule ctx in
    sum_fr := !sum_fr +. ratio d_frk;
    worst_fr := Float.max !worst_fr (ratio d_frk)
  done;
  (trials, !fr_ok, !kem_ok, !sum_pivot, !worst_pivot, !sum_fr, !worst_fr)

let run () =
  Harness.header "E13: consensus complete rankings (extension of §5 / §7)";
  let trials, fr_ok, kem_ok, sp, wp, sf, wf = correctness () in
  Harness.note "footrule assignment optimal vs brute force: %d/%d" fr_ok trials;
  Harness.note "Kemeny bitmask DP optimal vs brute force: %d/%d" kem_ok trials;
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "Kendall approximation ratios (%d instances)" trials)
      [
        ("method", Harness.Tables.Left);
        ("avg ratio", Harness.Tables.Right);
        ("worst ratio", Harness.Tables.Right);
      ]
  in
  Harness.Tables.add_row table
    [ "pivot + local search"; Printf.sprintf "%.4f" (sp /. float_of_int trials);
      Printf.sprintf "%.4f" wp ];
  Harness.Tables.add_row table
    [ "footrule-optimal (2-approx)"; Printf.sprintf "%.4f" (sf /. float_of_int trials);
      Printf.sprintf "%.4f" wf ];
  Harness.Tables.print table;
  let g = Prng.create ~seed:1302 () in
  let t2 =
    Harness.Tables.create ~title:"scaling (full footrule assignment over all keys)"
      [
        ("n keys", Harness.Tables.Right);
        ("full rank table (ms)", Harness.Tables.Right);
        ("mean footrule (ms)", Harness.Tables.Right);
        ("kendall pivot+LS (ms)", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun n ->
      let db = Gen.bid_db g n in
      let t_table =
        Harness.time_only (fun () ->
            ignore (Consensus_anxor.Marginals.full_rank_table db))
      in
      (* each on a fresh ctx: the footrule builds its own table *)
      let t_fr =
        Harness.time_only (fun () ->
            ignore (Rank_consensus.mean_footrule (Rank_consensus.make_ctx db)))
      in
      let t_kp =
        Harness.time_only (fun () ->
            ignore
              (Rank_consensus.mean_kendall_pivot g (Rank_consensus.make_ctx db)))
      in
      Harness.Tables.add_row t2
        [ string_of_int n; Harness.ms t_table; Harness.ms t_fr; Harness.ms t_kp ])
    (Harness.sizes ~quick_list:[ 20; 40 ] ~full_list:[ 25; 50; 100; 200 ]);
  Harness.Tables.print t2
