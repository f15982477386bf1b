(* E9 — §6.2: consensus clustering: pivot and local-search quality vs the
   brute-force optimum, and scaling of the generating-function weights. *)

open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let quality () =
  let g = Prng.create ~seed:901 () in
  let trials = if !Harness.quick then 6 else 20 in
  let stats = Hashtbl.create 4 in
  let record name ratio =
    let sum, worst, count =
      Option.value (Hashtbl.find_opt stats name) ~default:(0., 1., 0)
    in
    Hashtbl.replace stats name (sum +. ratio, Float.max worst ratio, count + 1)
  in
  for _ = 1 to trials do
    let db = Gen.clustering_db g (4 + Prng.int g 4) in
    let t = Cluster_consensus.make db in
    (* up to 7 keys x 3 alternatives = 21 leaves, past the oracle's default 18 *)
    let _, opt =
      Exact.solve
        (Exact.prepare ~max_leaves:24 db)
        (Api.Cluster { trials = 1; samples = None })
    in
    let ratio c =
      let d = Cluster_consensus.expected_dist t c in
      if opt > 1e-12 then d /. opt else 1.
    in
    record "pivot (best of 5)" (ratio (Cluster_consensus.best_pivot_of g ~trials:5 t));
    record "pivot + local search"
      (ratio (Cluster_consensus.local_search t (Cluster_consensus.best_pivot_of g ~trials:5 t)));
    record "best of 100 sampled worlds"
      (ratio (Cluster_consensus.best_of_worlds g ~samples:100 t))
  done;
  (trials, stats)

let run () =
  Harness.header "E9: consensus clustering (§6.2)";
  let trials, stats = quality () in
  let table =
    Harness.Tables.create
      ~title:(Printf.sprintf "quality vs brute-force optimum (%d instances, <= 7 keys)" trials)
      [
        ("method", Harness.Tables.Left);
        ("avg ratio", Harness.Tables.Right);
        ("worst ratio", Harness.Tables.Right);
      ]
  in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) stats []
  |> List.sort compare
  |> List.iter (fun (name, (sum, worst, count)) ->
         Harness.Tables.add_row table
           [
             name;
             Printf.sprintf "%.4f" (sum /. float_of_int count);
             Printf.sprintf "%.4f" worst;
           ]);
  Harness.Tables.print table;
  let table2 =
    Harness.Tables.create ~title:"scaling"
      [
        ("n keys", Harness.Tables.Right);
        ("weights w_ij (ms)", Harness.Tables.Right);
        ("pivot (ms)", Harness.Tables.Right);
        ("best_pivot_of 8 (ms)", Harness.Tables.Right);
        ("local search (ms)", Harness.Tables.Right);
      ]
  in
  let g = Prng.create ~seed:902 () in
  (* best_pivot_of draws from its own generator: the instances and the
     single pivot do not depend on it *)
  let g_best = Prng.create ~seed:903 () in
  let ns =
    Harness.sizes ~quick_list:[ 30; 60 ] ~full_list:[ 50; 100; 200; 400; 800 ]
  in
  let points =
    List.map
      (fun n ->
        let db = Gen.clustering_db g n in
        let t, t_make = Harness.time_it (fun () -> Cluster_consensus.make db) in
        let c0, t_pivot = Harness.time_it (fun () -> Cluster_consensus.pivot g t) in
        let t_best =
          Harness.time_only (fun () ->
              ignore (Cluster_consensus.best_pivot_of g_best ~trials:8 t))
        in
        let t_ls =
          Harness.time_only (fun () -> ignore (Cluster_consensus.local_search t c0))
        in
        Harness.Tables.add_row table2
          (string_of_int n
          :: List.map Harness.ms [ t_make; t_pivot; t_best; t_ls ]);
        (n, [ t_make; t_pivot; t_best; t_ls ]))
      ns
  in
  let slope col = Harness.slope (List.map (fun (n, ts) -> (n, List.nth ts col)) points) in
  Harness.Tables.add_row table2
    ("log-log slope" :: List.map (fun col -> Printf.sprintf "%.2f" (slope col)) [ 0; 1; 2; 3 ]);
  Harness.Tables.print table2
