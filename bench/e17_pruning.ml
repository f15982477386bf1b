(* E17 — ablation: upper-bound pruning for the PT-k / consensus-mean
   computation (Hua et al.-style early termination; DESIGN.md optimization
   note).  Pruned and full evaluation must return equally good answers. *)

open Consensus_util
open Consensus_anxor
module F = Consensus_ranking.Functions
module Gen = Consensus_workload.Gen

let run () =
  Harness.header "E17: ablation — upper-bound pruning for PT-k evaluation";
  let g = Prng.create ~seed:1701 () in
  let table =
    Harness.Tables.create
      ~title:"pruned vs exhaustive computation of the consensus mean (k = 10)"
      [
        ("workload", Harness.Tables.Left);
        ("n keys", Harness.Tables.Right);
        ("full (ms)", Harness.Tables.Right);
        ("pruned (ms)", Harness.Tables.Right);
        ("exact evals", Harness.Tables.Right);
        ("same quality", Harness.Tables.Right);
      ]
  in
  let k = 10 in
  let configs =
    let base = Harness.sizes ~quick_list:[ 100; 200 ] ~full_list:[ 200; 500; 1000 ] in
    List.concat_map
      (fun n ->
        [
          ( Printf.sprintf "uniform p∈[.05,.95]" ^ "",
            n,
            fun () -> Gen.independent_db g n );
          ( "skewed (5 hot keys)",
            n,
            fun () ->
              Db.independent
                (List.init n (fun i ->
                     let p = if i < 5 then 0.9 +. Prng.float g 0.09 else Prng.float g 0.08 in
                     (i, 1e6 -. float_of_int i +. Prng.float g 0.5, p))) );
        ])
      base
  in
  List.iter
    (fun (name, n, mk) ->
      let db = mk () in
      let full, t_full = Harness.time_it (fun () -> F.global_topk db ~k) in
      let (pruned, evals), t_pruned =
        Harness.time_it (fun () -> F.global_topk_pruned db ~k)
      in
      let mass answer =
        Array.fold_left (fun acc key -> acc +. Marginals.rank_leq db key ~k) 0. answer
      in
      Harness.Tables.add_row table
        [
          name;
          string_of_int n;
          Harness.ms t_full;
          Harness.ms t_pruned;
          Printf.sprintf "%d/%d" evals (Db.num_keys db);
          string_of_bool (Fcmp.approx ~eps:1e-6 (mass full) (mass pruned));
        ])
    configs;
  Harness.Tables.print table;
  Harness.note
    "shape check: pruning is answer-preserving; on skewed workloads it\n\
     evaluates a small fraction of the keys, on adversarially flat ones it\n\
     degrades gracefully to the exhaustive scan."
