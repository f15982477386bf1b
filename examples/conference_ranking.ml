(* Consensus complete rankings (library extension, paper §7 directions):
   rank researchers by uncertain yearly citation counts.  Each researcher's
   count is extracted from noisy sources, giving mutually exclusive
   alternatives; some researchers may not appear at all this year.

   Run with: dune exec examples/conference_ranking.exe *)

open Consensus_util
open Consensus_anxor
open Consensus

let researchers =
  [
    (* key, name, [(prob, citations); ...] — sub-stochastic = may be absent *)
    (0, "ada", [ (0.6, 120.); (0.4, 95.) ]);
    (1, "boole", [ (0.9, 101.) ]);
    (2, "curie", [ (0.5, 140.); (0.5, 80.) ]);
    (3, "dijkstra", [ (0.7, 118.); (0.2, 60.) ]);
    (4, "erdos", [ (0.4, 150.); (0.3, 30.) ]);
    (5, "floyd", [ (0.8, 88.) ]);
  ]

let name_of =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, n, _) -> Hashtbl.replace tbl k n) researchers;
  Hashtbl.find tbl

let () =
  let db = Db.bid (List.map (fun (k, _, alts) -> (k, alts)) researchers) in
  let ctx = Rank_consensus.make_ctx db in
  let show title (sigma, d) =
    Printf.printf "%-34s %s   E[d]=%.4f\n" title
      (Array.to_list sigma |> List.map name_of |> String.concat " > ")
      d
  in
  Printf.printf "consensus complete rankings over %d researchers\n\n"
    (Db.num_keys db);
  show "mean ranking (footrule, exact):" (Rank_consensus.mean_footrule ctx);
  show "mean ranking (Kendall, exact):" (Rank_consensus.mean_kendall_exact ctx);
  let rng = Prng.create ~seed:9 () in
  show "mean ranking (Kendall, pivot):" (Rank_consensus.mean_kendall_pivot rng ctx);
  let fr_sigma, _ = Rank_consensus.mean_footrule ctx in
  show "footrule answer under Kendall:"
    (fr_sigma, Rank_consensus.expected_kendall ctx fr_sigma);

  Printf.printf "\npairwise disagreement matrix (cost of row-before-column):\n     ";
  let keys = Rank_consensus.keys ctx in
  Array.iter (fun k -> Printf.printf "%9s" (name_of k)) keys;
  print_newline ();
  let w = Rank_consensus.disagreement_matrix ctx in
  Array.iteri
    (fun i row ->
      Printf.printf "%-5s" (name_of keys.(i));
      Array.iteri
        (fun j v -> if i = j then Printf.printf "%9s" "-" else Printf.printf "%9.3f" v)
        row;
      print_newline ())
    w;

  (* Contrast with naive orderings. *)
  Printf.printf "\nnaive orderings under the exact Kendall objective:\n";
  let eval sigma = Rank_consensus.expected_kendall ctx sigma in
  let by_expected_score =
    List.map (fun (k, _, alts) ->
        (k, List.fold_left (fun acc (p, c) -> acc +. (p *. c)) 0. alts))
      researchers
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.map fst |> Array.of_list
  in
  Printf.printf "  by expected citations: E[d]=%.4f\n" (eval by_expected_score);
  let _, opt = Rank_consensus.mean_kendall_exact ctx in
  Printf.printf "  consensus optimum:     E[d]=%.4f\n" opt
