(* E20 — extension: group-by count consensus under correlation.  §6.1
   assumes independent tuples; the and/xor generalization keeps the mean
   and the expected-distance evaluator exact (bias-variance via pairwise
   marginals), with a sampled median. *)

open Consensus_util
open Consensus_anxor
open Consensus
module Gen = Consensus_workload.Gen

let group_of m (a : Db.alt) = int_of_float a.Db.value mod m

let run () =
  Harness.header "E20: aggregates under correlation (extension of §6.1)";
  let g = Prng.create ~seed:2001 () in
  (* correctness on small instances *)
  let trials = if !Harness.quick then 8 else 25 in
  let mean_ok = ref 0 and sampled_gap = ref 0. in
  for _ = 1 to trials do
    let db = Gen.clustering_db ~num_values:6 g (2 + Prng.int g 4) in
    let t = Aggregate_tree.make db ~group:(group_of 3) ~num_groups:3 in
    let direct = Array.make 3 0. in
    Worlds.enumerate (Db.tree db)
    |> List.iter (fun (p, w) ->
           Array.iteri
             (fun v c -> direct.(v) <- direct.(v) +. (p *. c))
             (Aggregate_tree.counts_of_world t w));
    if Fcmp.compare_arrays ~eps:1e-9 direct (Aggregate_tree.mean t) then
      incr mean_ok;
    let _, brute = Aggregate_tree.brute_force_median t in
    let sampled = Aggregate_tree.median_sampled g ~samples:200 t in
    sampled_gap :=
      Float.max !sampled_gap (Aggregate_tree.expected_sq_dist t sampled -. brute)
  done;
  Harness.note "mean vector exact vs enumeration: %d/%d" !mean_ok trials;
  Harness.note "sampled median worst gap to exact median: %.4f" !sampled_gap;
  (* correlation effect: co-existence inflates variance, exclusivity
     shrinks it, independence in between *)
  let variance_of mk =
    let t = Aggregate_tree.make (mk ()) ~group:(fun _ -> 0) ~num_groups:1 in
    Aggregate_tree.variance t
  in
  let pair_and () =
    Db.create
      (Tree.xor
         [
           ( 0.5,
             Tree.and_
               [ Tree.leaf { Db.key = 1; value = 0. }; Tree.leaf { Db.key = 2; value = 0. } ]
           );
         ])
  in
  let pair_indep () = Db.independent [ (1, 0., 0.5); (2, 0.5, 0.5) ] in
  let pair_xor () =
    Db.create
      (Tree.xor
         [
           (0.5, Tree.leaf { Db.key = 1; value = 0. });
           (0.5, Tree.leaf { Db.key = 2; value = 0.5 });
         ])
  in
  let table =
    Harness.Tables.create ~title:"variance of one group count, two p=1/2 tuples"
      [ ("correlation", Harness.Tables.Left); ("Var", Harness.Tables.Right) ]
  in
  Harness.Tables.add_row table
    [ "co-existence (and)"; Printf.sprintf "%.3f" (variance_of pair_and) ];
  Harness.Tables.add_row table
    [ "independent"; Printf.sprintf "%.3f" (variance_of pair_indep) ];
  Harness.Tables.add_row table
    [ "mutual exclusion (xor)"; Printf.sprintf "%.3f" (variance_of pair_xor) ];
  Harness.Tables.print table;
  (* scaling of the exact evaluator *)
  let t2 =
    Harness.Tables.create ~title:"scaling (variance via pairwise marginals)"
      [
        ("n alternatives", Harness.Tables.Right);
        ("make (ms)", Harness.Tables.Right);
        ("sampled median 500 (ms)", Harness.Tables.Right);
      ]
  in
  List.iter
    (fun n ->
      let db = Gen.random_tree_db g n in
      let t, t_make =
        Harness.time_it (fun () -> Aggregate_tree.make db ~group:(group_of 8) ~num_groups:8)
      in
      let t_med =
        Harness.time_only (fun () ->
            ignore (Aggregate_tree.median_sampled g ~samples:500 t))
      in
      Harness.Tables.add_row t2
        [ string_of_int (Db.num_alts db); Harness.ms t_make; Harness.ms t_med ])
    (Harness.sizes ~quick_list:[ 100; 200 ] ~full_list:[ 100; 400; 800 ]);
  Harness.Tables.print t2;
  Harness.note
    "shape check: correlation moves the variance floor exactly as the\n\
     covariance terms predict (1.0 / 0.5 / 0.0 for and / independent / xor);\n\
     the mean stays exact, only the median needs sampling."
