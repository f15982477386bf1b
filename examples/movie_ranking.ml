(* Probabilistic top-k over a recommendation-style workload (the paper's §1
   cites recommendation systems): movies with uncertain predicted ratings.
   Compares the consensus answers and the ΥH ranking under each of the
   paper's metrics, on a synthetic catalogue
   large enough that exact enumeration is impossible — everything below runs
   on generating functions.

   Run with: dune exec examples/movie_ranking.exe *)

open Consensus_util
open Consensus

let () =
  let rng = Prng.create ~seed:2024 () in
  let n = 150 and k = 10 in
  (* A BID catalogue: each movie has up to 3 mutually exclusive predicted
     ratings (e.g. from conflicting reviewer segments). *)
  let db = Consensus_workload.Gen.bid_db ~max_alts:3 rng n in
  Printf.printf "catalogue: %d movies, %d rating alternatives, <= %.3g possible worlds\n\n"
    n
    (Consensus_anxor.Db.num_alts db)
    (Consensus_anxor.Tree.count_worlds (Consensus_anxor.Db.tree db));

  let ctx = Topk_consensus.make_ctx db ~k in
  let entries =
    [
      ("consensus mean dΔ (Thm 3)", Topk_consensus.mean_sym_diff ctx);
      ("consensus median dΔ (Thm 4)", Topk_consensus.median_sym_diff ctx);
      ("consensus mean dI (matching)", Topk_consensus.mean_intersection ctx);
      ("consensus mean dF (matching)", Topk_consensus.mean_footrule ctx);
      ("consensus dK (pivot+LS)", Topk_consensus.mean_kendall_pivot rng ctx);
      ("Upsilon_H ranking", Topk_consensus.mean_intersection_upsilon ctx);
    ]
  in
  (* Tables pads by code points, so the rows holding "Δ" line up. *)
  let table =
    Tables.create
      (("answer", Tables.Left)
      :: List.map (fun h -> (h, Tables.Right)) [ "E[dΔ]"; "E[dI]"; "E[dF]"; "E[dK]" ])
  in
  List.iter
    (fun (name, answer) ->
      Tables.add_row table
        (name
        :: List.map (Printf.sprintf "%.4f")
             [
               Topk_consensus.expected_sym_diff ctx answer;
               Topk_consensus.expected_intersection ctx answer;
               Topk_consensus.expected_footrule ctx answer;
               Topk_consensus.expected_kendall ctx answer;
             ]))
    entries;
  print_string (Tables.render table);

  Printf.printf "\ntop-%d under the intersection-metric consensus:\n" k;
  Array.iteri
    (fun i key ->
      Printf.printf "  %2d. movie %-4d Pr(in top-%d) = %.4f\n" (i + 1) key k
        (Topk_consensus.rank_leq ctx key))
    (Topk_consensus.mean_intersection ctx)
