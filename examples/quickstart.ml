(* Quickstart: build a small probabilistic database and ask for consensus
   answers under several metrics.

   Run with: dune exec examples/quickstart.exe *)

open Consensus_anxor
open Consensus

let () =
  (* A block-independent-disjoint relation: five papers with uncertain
     review scores; each paper (key) has mutually exclusive alternatives. *)
  let db =
    Db.bid
      [
        (* key, [(probability, score); ...] *)
        (1, [ (0.6, 91.); (0.4, 75.) ]);
        (2, [ (0.9, 88.) ]);
        (3, [ (0.5, 95.); (0.3, 60.) ]);
        (4, [ (0.3, 99.); (0.7, 70.) ]);
        (5, [ (0.8, 82.) ]);
      ]
  in
  Printf.printf "papers: %d, alternatives: %d, possible worlds <= %.0f\n\n"
    (Db.num_keys db) (Db.num_alts db)
    (Tree.count_worlds (Db.tree db));

  (* Tuple marginals and rank distributions come from generating functions. *)
  let k = 2 in
  Printf.printf "Pr(rank <= %d) per paper:\n" k;
  List.iter
    (fun (key, dist) ->
      Printf.printf "  paper %d: %.4f\n" key (Array.fold_left ( +. ) 0. dist))
    (Marginals.rank_table db ~k);

  (* Consensus top-k answers. *)
  let ctx = Topk_consensus.make_ctx db ~k in
  let show name answer =
    Printf.printf "  %-28s [%s]  E[dΔ]=%.4f E[dI]=%.4f E[dF]=%.4f E[dK]=%.4f\n"
      name
      (Array.to_list answer |> List.map string_of_int |> String.concat "; ")
      (Topk_consensus.expected_sym_diff ctx answer)
      (Topk_consensus.expected_intersection ctx answer)
      (Topk_consensus.expected_footrule ctx answer)
      (Topk_consensus.expected_kendall ctx answer)
  in
  Printf.printf "\nconsensus top-%d answers:\n" k;
  show "mean (symmetric difference)" (Topk_consensus.mean_sym_diff ctx);
  show "median (symmetric diff, DP)" (Topk_consensus.median_sym_diff ctx);
  show "mean (intersection metric)" (Topk_consensus.mean_intersection ctx);
  show "mean (footrule, exact)" (Topk_consensus.mean_footrule ctx);
  let rng = Consensus_util.Prng.create ~seed:7 () in
  show "mean (kendall, pivot)" (Topk_consensus.mean_kendall_pivot rng ctx);
  show "Upsilon_H (intersection)" (Topk_consensus.mean_intersection_upsilon ctx);

  (* Consensus worlds under set metrics. *)
  let mean_w = Set_consensus.mean_sym_diff db in
  let median_w = Set_consensus.median_sym_diff db in
  let show_world name w =
    Printf.printf "  %-28s {%s}  E[dΔ]=%.4f  E[dJ]=%.4f\n" name
      (List.map
         (fun l ->
           let a = Db.alt db l in
           Printf.sprintf "(%d,%g)" a.Db.key a.Db.value)
         w
      |> String.concat "; ")
      (Set_consensus.expected_sym_diff db w)
      (Set_consensus.expected_jaccard db w)
  in
  Printf.printf "\nconsensus worlds:\n";
  show_world "mean world (marginal > 1/2)" mean_w;
  show_world "median world (tree DP)" median_w;
  show_world "Jaccard median (BID)" (Set_consensus.median_jaccard_bid db)
