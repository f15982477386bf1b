(* E1 — Theorem 1 / Figure 1: generating-function correctness and scaling. *)

open Consensus_util
open Consensus_poly
open Consensus_anxor
module Gen = Consensus_workload.Gen

let correctness () =
  let g = Prng.create ~seed:101 () in
  let trials = if !Harness.quick then 10 else 40 in
  let ok = ref 0 in
  for _ = 1 to trials do
    let t = Gen.random_tree g (4 + Prng.int g 8) in
    let f = Genfunc.size_distribution (Db.arena (Db.create t)) in
    let worlds = Worlds.enumerate t in
    let good = ref true in
    for size = 0 to Poly1.degree f do
      let direct =
        List.fold_left
          (fun acc (p, w) -> if List.length w = size then acc +. p else acc)
          0. worlds
      in
      if not (Fcmp.approx ~eps:1e-6 direct (Poly1.coeff f size)) then good := false
    done;
    if !good then incr ok
  done;
  (trials, !ok)

let figure1 () =
  let db =
    Db.bid
      [
        (1, [ (0.1, 8.); (0.5, 2.) ]);
        (2, [ (0.4, 3.); (0.4, 4.) ]);
        (3, [ (0.2, 1.); (0.8, 9.) ]);
        (4, [ (0.5, 6.); (0.5, 5.) ]);
      ]
  in
  let f = Marginals.size_distribution db in
  Poly1.equal ~eps:1e-12 f (Poly1.of_coeffs [| 0.; 0.; 0.08; 0.44; 0.48 |])

let run () =
  Harness.header "E1: generating functions (Theorem 1, Figure 1)";
  let trials, ok = correctness () in
  Harness.note "size-distribution vs enumeration: %d/%d random trees exact" ok trials;
  Harness.note "Figure 1(i) coefficients reproduced exactly: %b" (figure1 ());
  let table =
    Harness.Tables.create ~title:"scaling (BID databases, k = 10)"
      [
        ("n alternatives", Harness.Tables.Right);
        ("size dist (ms)", Harness.Tables.Right);
        ("one rank dist (ms)", Harness.Tables.Right);
        ("all Pr(r<=k) (ms)", Harness.Tables.Right);
      ]
  in
  let g = Prng.create ~seed:102 () in
  let ns = Harness.sizes ~quick_list:[ 100; 400 ] ~full_list:[ 100; 400; 1000; 2000; 4000 ] in
  List.iter
    (fun n ->
      let db = Gen.bid_db g n in
      let t_size = Harness.time_only (fun () -> ignore (Marginals.size_distribution db)) in
      let some_key = (Db.keys db).(0) in
      let t_rank =
        Harness.time_only (fun () -> ignore (Marginals.rank_dist db some_key ~k:10))
      in
      let t_all = Harness.time_only (fun () -> ignore (Marginals.rank_table db ~k:10)) in
      Harness.Tables.add_row table
        [ string_of_int (Db.num_alts db); Harness.ms t_size; Harness.ms t_rank; Harness.ms t_all ])
    ns;
  Harness.Tables.print table
