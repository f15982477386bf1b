(* E4 — Theorem 3 and the paper's §1 motivation: the consensus mean top-k
   answer under the symmetric difference minimizes E[dΔ]; the other
   consensus answers and the ΥH ranking are measured against it.  This is
   the repository's headline quality table. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen

let methods rng ctx =
  [
    ("consensus mean dΔ (PT-k/Thm 3)", Topk_consensus.mean_sym_diff ctx);
    ("consensus median dΔ (Thm 4)", Topk_consensus.median_sym_diff ctx);
    ("consensus mean dI (assignment)", Topk_consensus.mean_intersection ctx);
    ("consensus mean dF (assignment)", Topk_consensus.mean_footrule ctx);
    ("consensus dK (pivot+LS)", Topk_consensus.mean_kendall_pivot rng ctx);
    ("Upsilon_H", Topk_consensus.mean_intersection_upsilon ctx);
  ]

let one_table ~name db ~k =
  let rng = Prng.create ~seed:404 () in
  let ctx = Topk_consensus.make_ctx db ~k in
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "%s, k = %d  (lower is better; bold claim: row 1 wins dΔ)" name k)
      [
        ("method", Harness.Tables.Left);
        ("E[dΔ]", Harness.Tables.Right);
        ("E[dI]", Harness.Tables.Right);
        ("E[dF]", Harness.Tables.Right);
        ("E[dK]", Harness.Tables.Right);
      ]
  in
  let rows = methods rng ctx in
  let d_mean =
    Topk_consensus.expected_sym_diff ctx (Topk_consensus.mean_sym_diff ctx)
  in
  let all_ge = ref true and short_median = ref None in
  List.iter
    (fun (name, answer) ->
      let dd = Topk_consensus.expected_sym_diff ctx answer in
      (* The mean minimizes over *size-k* lists (§3.4); the Thm-4 median may
         be shorter when worlds with < k tuples are possible, and can then
         legitimately score below the mean. *)
      if Array.length answer = k && dd < d_mean -. 1e-9 then all_ge := false;
      if Array.length answer < k then short_median := Some (name, Array.length answer);
      Harness.Tables.add_row table
        [
          name;
          Printf.sprintf "%.4f" dd;
          Printf.sprintf "%.4f" (Topk_consensus.expected_intersection ctx answer);
          Printf.sprintf "%.2f" (Topk_consensus.expected_footrule ctx answer);
          Printf.sprintf "%.2f" (Topk_consensus.expected_kendall ctx answer);
        ])
    rows;
  Harness.Tables.print table;
  Harness.note
    "Theorem 3 certificate: no size-k answer beats the consensus mean on E[dΔ]: %b"
    !all_ge;
  Option.iter
    (fun (name, len) ->
      Harness.note
        "note: '%s' returned %d < k items — possible worlds with fewer than k\n\
         tuples make shorter answers legal for the median (see EXPERIMENTS.md E4)"
        name len)
    !short_median

let run () =
  Harness.header "E4: top-k consensus answers and ΥH (Thm 3)";
  let g = Prng.create ~seed:401 () in
  let n = if !Harness.quick then 60 else 200 in
  let ks = Harness.sizes ~quick_list:[ 5 ] ~full_list:[ 5; 10; 20 ] in
  let indep = Gen.independent_db g n in
  let bid = Gen.bid_db g n in
  List.iter (fun k -> one_table ~name:(Printf.sprintf "tuple-independent n=%d" n) indep ~k) ks;
  List.iter (fun k -> one_table ~name:(Printf.sprintf "BID n=%d keys" n) bid ~k) ks
