open Consensus_util
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let check_float = Alcotest.(check (float 1e-6))
let rng () = Prng.create ~seed:5150 ()

let random_perm g keys =
  let p = Array.copy keys in
  Prng.shuffle g p;
  p

(* BID-shaped instances small enough for the possible-worlds oracle (at
   most 8 keys), so the rank-table sweep is checked against it too: BID
   proper with certain and uncertain keys, and x-tuples (blocks of mutually
   exclusive tuples with distinct keys). *)
let bid_shaped_dbs g =
  List.init 4 (fun _ -> Gen.bid_db ~forced_fraction:0.5 g (3 + Prng.int g 3))
  @ List.init 4 (fun _ -> Gen.xtuple_db ~max_alts:2 g (2 + Prng.int g 2))

let test_evaluators_vs_enum () =
  let g = rng () in
  let check db =
    let ctx = Rank_consensus.make_ctx db in
    let sigma = random_perm g (Rank_consensus.keys ctx) in
    let t = Exact.prepare db in
    check_float "footrule evaluator"
      (Exact.expected t (Api.Rank Api.Rank_footrule) (Exact.Rank sigma))
      (Rank_consensus.expected_footrule ctx sigma);
    check_float "kendall evaluator"
      (Exact.expected t (Api.Rank Api.Rank_kendall) (Exact.Rank sigma))
      (Rank_consensus.expected_kendall ctx sigma)
  in
  for iter = 1 to 12 do
    check
      (if iter mod 2 = 0 then Gen.random_tree_db g (3 + Prng.int g 4)
       else Gen.random_keyed_tree g (3 + Prng.int g 4))
  done;
  List.iter check (bid_shaped_dbs g)

let test_mean_footrule_optimal () =
  let g = rng () in
  let check db =
    let ctx = Rank_consensus.make_ctx db in
    let sigma, d = Rank_consensus.mean_footrule ctx in
    check_float "reported distance consistent" d
      (Rank_consensus.expected_footrule ctx sigma);
    let _, best = Exact.solve (Exact.prepare db) (Api.Rank Api.Rank_footrule) in
    check_float "footrule assignment optimal" best d
  in
  for _ = 1 to 12 do
    check (Gen.random_tree_db g (3 + Prng.int g 3))
  done;
  List.iter check (bid_shaped_dbs g)

let test_mean_kendall_exact_optimal () =
  let g = rng () in
  let check db =
    let ctx = Rank_consensus.make_ctx db in
    let sigma, d = Rank_consensus.mean_kendall_exact ctx in
    check_float "reported cost consistent" d (Rank_consensus.expected_kendall ctx sigma);
    let _, best = Exact.solve (Exact.prepare db) (Api.Rank Api.Rank_kendall) in
    check_float "kemeny DP optimal" best d
  in
  for _ = 1 to 12 do
    check (Gen.random_tree_db g (3 + Prng.int g 3))
  done;
  List.iter check (bid_shaped_dbs g)

(* A random tree whose top-level xor blocks carry the numeric edges: an edge
   of probability 1e-12, one of 1 − 1e-12 and a pair whose mass sits at the
   1 + 1e-9 bound, each over a random subtree of fresh keys. *)
let edge_tree_db g =
  let module Tree = Consensus_anxor.Tree in
  let scores = Gen.distinct_scores g 64 in
  let next = ref (-1) in
  let subtree n =
    Tree.map
      (fun _ ->
        incr next;
        { Consensus_anxor.Db.key = !next; value = scores.(!next) })
      (Gen.random_tree g n)
  in
  Consensus_anxor.Db.create
    (Tree.and_
       [
         Tree.xor [ (1e-12, subtree 5) ];
         Tree.xor [ (1. -. 1e-12, subtree 8) ];
         Tree.xor [ (0.6, subtree 6); (Suite_anxor.at_mass_bound 0.6, subtree 7) ];
         subtree 10;
       ])

(* Every O(n) footrule cost row equals the per-cell definition: BID,
   x-tuple and random-tree databases, and blocks of mass 1e-12, 1 − 1e-12
   and 1 + 1e-9. *)
let test_footrule_rows_match_definition () =
  let g = rng () in
  let check name db =
    let ctx = Rank_consensus.make_ctx db in
    let keys = Rank_consensus.keys ctx in
    let worst = ref (0., 0, 0) in
    Array.iteri
      (fun r row ->
        Array.iteri
          (fun pos0 cost ->
            let d =
              Float.abs (cost -. Rank_consensus.position_cost ctx keys.(r) (pos0 + 1))
            in
            let wd, _, _ = !worst in
            if not (d <= wd) then worst := (d, keys.(r), pos0 + 1))
          row)
      (Rank_consensus.footrule_costs ctx);
    let d, key, pos = !worst in
    if not (d <= 1e-9) then
      Alcotest.failf "%s: row of key %d differs from position_cost at %d by %g"
        name key pos d
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "bid %d" n) (Gen.bid_db ~max_alts:4 ~forced_fraction:0.5 g n);
      check (Printf.sprintf "x-tuple %d" n)
        (Gen.xtuple_db ~max_alts:4 ~forced_fraction:0.5 g n);
      check (Printf.sprintf "tree %d" n) (Gen.random_tree_db g n);
      check (Printf.sprintf "keyed tree %d" n) (Gen.random_keyed_tree g n))
    [ 1; 7; 60; 150 ];
  List.iter
    (fun xtuple ->
      check
        (if xtuple then "x-tuple edges" else "bid edges")
        (Consensus_anxor.Db.create
           (Consensus_anxor.Tree.bid (Suite_anxor.edge_blocks g ~xtuple 80))))
    [ false; true ];
  for _ = 1 to 3 do
    check "tree edges" (edge_tree_db g)
  done

(* The footrule mean fills one unboxed n-float row buffer at a time and
   never builds the matrix: on one domain, with the rank table built
   beforehand, the whole solve at 300 keys allocates well under one minor
   word per cell, the solver's scratch included.  The per-cell definition
   walk of an earlier version allocated ~856 per cell here and fails this
   bound. *)
let test_mean_footrule_allocation_bound () =
  let n = 300 in
  Consensus_engine.Pool.with_pool ~jobs:1 @@ fun pool ->
  let ctx = Rank_consensus.make_ctx ~pool (Gen.bid_db ~max_alts:1 (rng ()) n) in
  ignore (Rank_consensus.position_cost ctx (Rank_consensus.keys ctx).(0) 1);
  let before = Gc.minor_words () in
  ignore (Rank_consensus.mean_footrule ctx);
  let per_cell = (Gc.minor_words () -. before) /. float_of_int (n * n) in
  if per_cell > 10. then
    Alcotest.failf "mean_footrule allocates %.1f minor words per cell" per_cell

(* The footrule mean against every permutation, on databases of at most 7
   keys of each shape: the optimum within 1e-12 relative. *)
let test_mean_footrule_vs_brute () =
  let g = rng () in
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
          xs
  in
  let check name db =
    let ctx = Rank_consensus.make_ctx db in
    let cost = Rank_consensus.footrule_costs ctx in
    let n = Array.length cost in
    let best =
      List.fold_left
        (fun best p ->
          let sum = ref 0. in
          List.iteri (fun r pos -> sum := !sum +. cost.(r).(pos)) p;
          Float.min best !sum)
        infinity
        (perms (List.init n Fun.id))
    in
    let _, total = Rank_consensus.mean_footrule ctx in
    if Float.abs (total -. best) > 1e-12 *. Float.max 1. best then
      Alcotest.failf "%s (%d keys): mean_footrule %.17g, brute force %.17g" name n total best
  in
  for _ = 1 to 20 do
    let n = 1 + Prng.int g 7 in
    check "independent" (Gen.independent_db g n);
    check "bid" (Gen.bid_db ~forced_fraction:0.4 g n);
    check "x-tuple" (Gen.xtuple_db g (1 + Prng.int g 3));
    check "tree" (Gen.random_tree_db g n);
    check "keyed tree" (Gen.random_keyed_tree g n);
    check "small" (Gen.small_db g ~max_leaves:7)
  done

(* The footrule mean against the Kuhn–Munkres reference ([Hungarian_ref])
   on the full cost matrix, 200 databases of each shape.  Independent, BID
   and x-tuple answers have no exact cost ties: the permutation and the
   reported total must be the reference's bit for bit.  Trees do tie, and
   there the totals must agree within 1e-12 relative. *)
let test_mean_footrule_vs_reference () =
  let g = Prng.create ~seed:3434 () in
  let check ~identical name db =
    let ctx = Rank_consensus.make_ctx db in
    let assignment, best = Hungarian_ref.minimize (Rank_consensus.footrule_costs ctx) in
    let s = Rank_consensus.footrule_assignment ctx in
    let sigma, total = Rank_consensus.mean_footrule ctx in
    if identical then begin
      if s.assignment <> assignment then Alcotest.failf "%s: another permutation" name;
      if Int64.bits_of_float total <> Int64.bits_of_float best then
        Alcotest.failf "%s: total %h, reference %h" name total best
    end
    else if Float.abs (total -. best) > 1e-12 *. Float.max 1. best then
      Alcotest.failf "%s: total %.17g, reference %.17g" name total best;
    check_float "reported total is the permutation's" total
      (Rank_consensus.expected_footrule ctx sigma)
  in
  for _ = 1 to 200 do
    check ~identical:true "independent" (Gen.independent_db g (1 + Prng.int g 40));
    check ~identical:true "bid" (Gen.bid_db g (1 + Prng.int g 40));
    check ~identical:true "x-tuple" (Gen.xtuple_db g (1 + Prng.int g 15));
    check ~identical:false "tree" (Gen.random_tree_db g (1 + Prng.int g 40));
    check ~identical:false "keyed tree" (Gen.random_keyed_tree g (1 + Prng.int g 40));
    check ~identical:false "small" (Gen.small_db g ~max_leaves:12)
  done

(* Kendall reads only presence marginals and pairwise disagreements: a
   Kendall query must not build (or store) the full rank table, and a
   footrule query on the same database must. *)
let test_full_rank_table_only_for_footrule () =
  let module Cache = Consensus_cache.Cache in
  let db = Gen.bid_db (rng ()) 20 in
  let full_key =
    Cache.key ~family:"full_rank_dist" ~digest:(Consensus_anxor.Db.digest db)
      ~params:[]
  in
  Cache.clear ();
  Cache.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_enabled false;
      Cache.clear ();
      Cache.reset_stats ())
  @@ fun () ->
  ignore (Api.run db (Api.Rank Api.Rank_kendall));
  Alcotest.(check bool) "kendall leaves no full_rank_dist entry" true
    (Cache.find Cache.Matrix full_key = None);
  ignore (Api.run db (Api.Rank Api.Rank_footrule));
  Alcotest.(check bool) "footrule stores full_rank_dist" true
    (Cache.find Cache.Matrix full_key <> None)

let test_kendall_approximations () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Gen.random_tree_db g (4 + Prng.int g 3) in
    let ctx = Rank_consensus.make_ctx db in
    let _, opt = Rank_consensus.mean_kendall_exact ctx in
    let _, piv = Rank_consensus.mean_kendall_pivot g ctx in
    Alcotest.(check bool)
      (Printf.sprintf "pivot within 2x (%g vs %g)" piv opt)
      true
      (piv <= (2. *. opt) +. 1e-9);
    let sigma, _ = Rank_consensus.mean_footrule ctx in
    let fr = Rank_consensus.expected_kendall ctx sigma in
    Alcotest.(check bool)
      (Printf.sprintf "footrule within 2x on kendall (%g vs %g)" fr opt)
      true
      (fr <= (2. *. opt) +. 1e-9)
  done

let test_certain_db_recovers_score_order () =
  (* With all tuples certain, the consensus ranking is just the score
     ranking, for both metrics. *)
  let db =
    Consensus_anxor.Db.independent
      [ (0, 10., 1.0); (1, 30., 1.0); (2, 20., 1.0) ]
  in
  let ctx = Rank_consensus.make_ctx db in
  let sigma, d = Rank_consensus.mean_footrule ctx in
  Alcotest.(check (array int)) "score order" [| 1; 2; 0 |] sigma;
  check_float "zero distance" 0. d;
  let sigma_k, dk = Rank_consensus.mean_kendall_exact ctx in
  Alcotest.(check (array int)) "score order kendall" [| 1; 2; 0 |] sigma_k;
  check_float "zero kendall" 0. dk

let test_disagreement_matrix_bounds () =
  let g = rng () in
  let db = Gen.random_keyed_tree g 8 in
  let ctx = Rank_consensus.make_ctx db in
  let w = Rank_consensus.disagreement_matrix ctx in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if i <> j then
            Alcotest.(check bool) "weight is a probability" true
              (Fcmp.is_probability ~eps:1e-9 v))
        row)
    w

let test_perm_validation () =
  let db = Consensus_anxor.Db.independent [ (0, 1., 0.5); (1, 2., 0.5) ] in
  let ctx = Rank_consensus.make_ctx db in
  (try
     ignore (Rank_consensus.expected_footrule ctx [| 0 |]);
     Alcotest.fail "short answer accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Rank_consensus.expected_kendall ctx [| 0; 0 |]);
    Alcotest.fail "duplicate accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "evaluators vs enumeration" `Quick test_evaluators_vs_enum;
    Alcotest.test_case "mean footrule optimal" `Quick test_mean_footrule_optimal;
    Alcotest.test_case "footrule rows match definition" `Quick
      test_footrule_rows_match_definition;
    Alcotest.test_case "footrule allocation bound" `Quick
      test_mean_footrule_allocation_bound;
    Alcotest.test_case "kemeny DP optimal" `Quick test_mean_kendall_exact_optimal;
    Alcotest.test_case "kendall approximations" `Quick test_kendall_approximations;
    Alcotest.test_case "certain db = score order" `Quick test_certain_db_recovers_score_order;
    Alcotest.test_case "disagreement matrix bounds" `Quick test_disagreement_matrix_bounds;
    Alcotest.test_case "permutation validation" `Quick test_perm_validation;
    Alcotest.test_case "full rank table only for footrule" `Quick
      test_full_rank_table_only_for_footrule;
    Alcotest.test_case "mean footrule vs brute force" `Quick test_mean_footrule_vs_brute;
    Alcotest.test_case "mean footrule vs reference" `Quick
      test_mean_footrule_vs_reference;
  ]
