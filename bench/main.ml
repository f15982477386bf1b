(* Experiment harness: regenerates every experiment table of EXPERIMENTS.md.

   Usage: dune exec bench/main.exe -- [--quick] [--only E4[,E8...]] [--list]
          [--trace FILE] [--obs-metrics]

   E23, E29 and E30 rewrite their pinned BENCH_*.json files at the current
   directory in full mode only. *)

let experiments =
  [
    ("E1", "generating functions (Thm 1, Fig 1)", E01_genfunc.run);
    ("E2", "symdiff consensus worlds (Thm 2, Cor 1)", E02_symdiff_world.run);
    ("E3", "Jaccard consensus worlds (Lemmas 1-2)", E03_jaccard.run);
    ("E4", "top-k consensus answers and ΥH (Thm 3)", E04_topk_mean.run);
    ("E5", "top-k median DP (Thm 4)", E05_topk_median.run);
    ("E6", "intersection metric (§5.3)", E06_intersection.run);
    ("E7", "footrule + Kendall (§5.4-5.5)", E07_footrule_kendall.run);
    ("E8", "aggregate median flow (§6.1)", E08_aggregate.run);
    ("E9", "consensus clustering (§6.2)", E09_clustering.run);
    ("E10", "MAX-2-SAT hardness gadget (§4.1)", E10_maxsat.run);
    ("E11", "model representation size (§3.2)", E11_model_size.run);
    ("E12", "SPJ lineage inference", E12_spj.run);
    ("E13", "consensus complete rankings (extension)", E13_full_rank.run);
    ("E15", "truncation ablation (Thm 1 engines)", E15_truncation.run);
    ("E16", "inference decomposition ablation", E16_inference_ablation.run);
    ("E18", "safe plans vs lineage inference", E18_safe_plan.run);
    ("E22", "O(nk) sweep rank table ablation", E22_rank_table.run);
    ("E23", "observability overhead (lib/obs)", E23_obs_overhead.run);
    ("E29", "flat-arena load + buffer kernels (lib/anxor)", E29_arena.run);
    ("E30", "read-once factorization ablation (lib/pdb)", E30_readonce.run);
  ]

let () =
  let only = ref [] in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        Harness.quick := true;
        parse rest
    | "--list" :: _ ->
        List.iter (fun (id, desc, _) -> Printf.printf "%-4s %s\n" id desc) experiments;
        exit 0
    | "--only" :: spec :: rest ->
        only := String.split_on_char ',' spec |> List.map String.trim;
        parse rest
    | "--trace" :: path :: rest ->
        Harness.trace_path := Some path;
        Harness.Obs.set_enabled true;
        parse rest
    | "--obs-metrics" :: rest ->
        Harness.obs_metrics := true;
        Harness.Obs.set_enabled true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 2
  in
  parse args;
  let selected =
    match !only with
    | [] -> experiments
    | ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
  in
  Printf.printf
    "Consensus answers over probabilistic databases — experiment harness\n";
  Printf.printf "(PODS'09 reproduction; %s mode)\n"
    (if !Harness.quick then "quick" else "full");
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, _, run) -> run ()) selected;
  Harness.finish_obs ();
  Printf.printf "\ntotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
