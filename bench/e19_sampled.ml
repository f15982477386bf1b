(* E19 — sampled consensus: Monte-Carlo aggregation of sampled world
   answers (the paper's §1 inconsistent-information framing) converging to
   the exact generating-function optima. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen

let run () =
  Harness.header "E19: sampled consensus answers vs exact (convergence)";
  let g = Prng.create ~seed:1901 () in
  let n = if !Harness.quick then 60 else 200 in
  let k = 10 in
  let db = Gen.bid_db g n in
  let ctx = Topk_consensus.make_ctx db ~k in
  let d_sd tau = Topk_consensus.expected_sym_diff ctx tau in
  let d_fr tau = Topk_consensus.expected_footrule ctx tau in
  let exact_sd = d_sd (Topk_consensus.mean_sym_diff ctx) in
  let exact_fr = d_fr (Topk_consensus.mean_footrule ctx) in
  let table =
    Harness.Tables.create
      ~title:
        (Printf.sprintf
           "BID n=%d, k=%d; exact optima: E[dΔ]*=%.4f, E[dF]*=%.2f" n k exact_sd
           exact_fr)
      [
        ("samples", Harness.Tables.Right);
        ("E[dΔ] gap", Harness.Tables.Right);
        ("E[dF] gap", Harness.Tables.Right);
        ("time dΔ (ms)", Harness.Tables.Right);
        ("time dF (ms)", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun samples ->
      let a_sd, t_sd =
        Harness.time_it (fun () ->
            Topk_consensus.sampled_mean_sym_diff g ~samples db ~k)
      in
      let a_fr, t_fr =
        Harness.time_it (fun () ->
            Topk_consensus.sampled_mean_footrule g ~samples db ~k)
      in
      Harness.Tables.add_row table
        [
          string_of_int samples;
          Printf.sprintf "%+.4f" (d_sd a_sd -. exact_sd);
          Printf.sprintf "%+.2f" (d_fr a_fr -. exact_fr);
          Harness.ms t_sd;
          Harness.ms t_fr;
        ])
    (Harness.sizes ~quick_list:[ 10; 100 ] ~full_list:[ 10; 50; 200; 1000; 5000 ]);
  Harness.Tables.print table;
  Harness.note
    "shape check: the sampled answers converge to the exact consensus optima\n\
     as the sample count grows; the exact algorithms remain preferable at\n\
     these sizes, sampling wins when n·k makes the O(n²k) tables too big."
