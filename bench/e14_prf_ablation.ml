(* E14 — ablation: parameterized ranking function weight families (the
   paper's §5.3 / [29] framework) measured against the consensus optima.
   Shows which weight choices approximate which consensus metric. *)

open Consensus_util
open Consensus
module F = Consensus_ranking.Functions
module Gen = Consensus_workload.Gen

let run () =
  Harness.header "E14: ablation — PRF weight families vs consensus optima";
  let g = Prng.create ~seed:1401 () in
  let n = if !Harness.quick then 60 else 150 in
  let k = 10 in
  let db = Gen.bid_db g n in
  let ctx = Topk_consensus.make_ctx db ~k in
  let families =
    [
      ("w(i)=1{i<=k}  (Global-Top-k)", fun i -> if i <= k then 1. else 0.);
      ( "w(i)=(k+1-i)+ (linear decay)",
        fun i -> if i <= k then float_of_int (k + 1 - i) else 0. );
      ("w(i)=H_k - H_{i-1} (ΥH)", fun i ->
        if i <= k then Stats.harmonic k -. Stats.harmonic (i - 1) else 0.);
      ("w(i)=0.8^i   (exponential)", fun i -> 0.8 ** float_of_int i);
      ("w(i)=1        (count all)", fun _ -> 1.);
    ]
  in
  let d_opt_sd = Topk_consensus.expected_sym_diff ctx (Topk_consensus.mean_sym_diff ctx) in
  let d_opt_in =
    Topk_consensus.expected_intersection ctx (Topk_consensus.mean_intersection ctx)
  in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf
           "BID n=%d, k=%d; optima: E[dΔ]*=%.4f, E[dI]*=%.4f (gap = answer - optimum)"
           n k d_opt_sd d_opt_in)
      [
        ("weight family", Harness.Tables.Left);
        ("E[dΔ] gap", Harness.Tables.Right);
        ("E[dI] gap", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun (name, w) ->
      let answer = F.prf db ~w ~k in
      Harness.Tables.add_row table
        [
          name;
          Printf.sprintf "%+.4f" (Topk_consensus.expected_sym_diff ctx answer -. d_opt_sd);
          Printf.sprintf "%+.4f"
            (Topk_consensus.expected_intersection ctx answer -. d_opt_in);
        ])
    families;
  Harness.Tables.print table;
  Harness.note
    "shape check: the indicator family tracks the dΔ optimum, the harmonic\n\
     family tracks the dI optimum (§5.3), and mismatched weights pay a gap."
