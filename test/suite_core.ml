open Consensus_util
open Consensus_anxor
open Consensus
module Gen = Consensus_workload.Gen
module Exact = Consensus_oracle.Exact

let check_float = Alcotest.(check (float 1e-6))
let rng () = Prng.create ~seed:2025 ()

(* References: the possible-worlds oracle, Definition 1 by enumeration. *)
let exact_expected db q answer = Exact.expected (Exact.prepare db) q answer
let exact_optimum db q = snd (Exact.solve (Exact.prepare db) q)

let topk_expected ctx metric tau =
  exact_expected (Topk_consensus.db ctx)
    (Api.Topk (Topk_consensus.k ctx, metric, Api.Mean))
    (Exact.Topk tau)

let topk_optimum ctx metric flavor =
  exact_optimum (Topk_consensus.db ctx) (Api.Topk (Topk_consensus.k ctx, metric, flavor))

let cluster_q = Api.Cluster { trials = 1; samples = None }

(* =================== Set consensus (§4) =================== *)

let test_expected_sym_diff_closed_form () =
  let g = rng () in
  for _ = 1 to 15 do
    let db = Gen.random_tree_db g (3 + Prng.int g 6) in
    let w =
      List.init (Db.num_alts db) Fun.id |> List.filter (fun i -> i mod 2 = 0)
    in
    check_float "closed form = enumeration"
      (exact_expected db (Api.World (Api.Set_sym_diff, Api.Mean)) (Exact.World w))
      (Set_consensus.expected_sym_diff db w)
  done

let test_mean_sym_diff_optimal () =
  (* Theorem 2: the > 0.5 marginal set beats every other subset. *)
  let g = rng () in
  for _ = 1 to 15 do
    let db = Gen.random_tree_db g (3 + Prng.int g 6) in
    let mean = Set_consensus.mean_sym_diff db in
    let best = exact_optimum db (Api.World (Api.Set_sym_diff, Api.Mean)) in
    check_float "theorem 2" best (Set_consensus.expected_sym_diff db mean)
  done

let test_median_sym_diff_optimal () =
  (* The tree DP must find the exact possible-world argmin. *)
  let g = rng () in
  for _ = 1 to 20 do
    let db = Gen.random_tree_db g (3 + Prng.int g 7) in
    let median = Set_consensus.median_sym_diff db in
    let best = exact_optimum db (Api.World (Api.Set_sym_diff, Api.Median)) in
    check_float "median optimal" best (Set_consensus.expected_sym_diff db median);
    (* and it must be a possible world *)
    Alcotest.(check bool) "median is possible" true
      (Tree.world_is_possible ~eq:( = ) (fst (Tree.index (Db.tree db))) median)
  done

let test_corollary1_consistency () =
  (* Corollary 1: when the >0.5 set is a possible world, the median equals
     it in expected distance. *)
  let g = rng () in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 20 do
    let db = Gen.random_tree_db g (3 + Prng.int g 6) in
    let mean = Set_consensus.mean_sym_diff db in
    if Tree.world_is_possible ~eq:( = ) (fst (Tree.index (Db.tree db))) mean then begin
      incr total;
      let median = Set_consensus.median_sym_diff db in
      if
        Fcmp.approx ~eps:1e-9
          (Set_consensus.expected_sym_diff db mean)
          (Set_consensus.expected_sym_diff db median)
      then incr agree
    end
  done;
  Alcotest.(check int) "corollary 1 holds whenever applicable" !total !agree

(* BID-shaped blocks at the numeric edges: probabilities 1e-12, 1 - 1e-12
   and 0.5 ± 1 ulp, and one block whose mass is the largest that [Tree.xor]
   accepts under its 1 + 1e-9 bound.  [xtuple] gives every alternative its
   own key. *)
let edge_db ~xtuple =
  let over = ref (1. +. 1e-9 -. 0.6) in
  while 0.6 +. !over > 1. +. 1e-9 do over := Float.pred !over done;
  let up = Float.succ 0.5 and down = Float.pred 0.5 in
  let next = ref (-1) in
  let alt block p =
    incr next;
    (p, { Db.key = (if xtuple then !next else block); value = float_of_int (10 * !next) })
  in
  [ [ 0.6; !over ]; [ 1e-12; 1. -. 1e-12 ]; [ 1. -. 1e-12 ]; [ 1e-12 ]; [ up; down ];
    [ up ]; [ down; 0.25 ] ]
  |> List.mapi (fun b ps -> List.map (alt b) ps)
  |> Tree.bid |> Db.create

let test_expected_jaccard_vs_enum () =
  let check db =
    let all = List.init (Db.num_alts db) Fun.id in
    List.iter
      (fun w ->
        check_float "jaccard genfunc = enumeration"
          (exact_expected db (Api.World (Api.Set_jaccard, Api.Mean)) (Exact.World w))
          (Set_consensus.expected_jaccard db w))
      ([] :: all :: List.map (fun r -> List.filter (fun i -> (i + r) mod 2 = 0) all) [ 0; 1 ])
  in
  let g = rng () in
  for _ = 1 to 15 do
    check (Gen.random_tree_db g (3 + Prng.int g 5))
  done;
  for _ = 1 to 5 do
    check (Gen.bid_db g (2 + Prng.int g 3));
    check (Gen.xtuple_db g (2 + Prng.int g 3))
  done;
  List.iter (fun xtuple -> check (edge_db ~xtuple)) [ false; true ]

let test_mean_jaccard_optimal () =
  (* Lemma 2: prefix algorithm matches brute force on independent dbs. *)
  let g = rng () in
  for _ = 1 to 15 do
    let db = Gen.independent_db g (2 + Prng.int g 6) in
    let mean = Set_consensus.mean_jaccard db in
    let best = exact_optimum db (Api.World (Api.Set_jaccard, Api.Mean)) in
    check_float "lemma 2" best (Set_consensus.expected_jaccard db mean)
  done

let test_mean_jaccard_requires_independence () =
  let g = rng () in
  let db = Gen.bid_db ~max_alts:3 g 4 in
  if not (Db.is_independent db) then
    try
      ignore (Set_consensus.mean_jaccard db);
      Alcotest.fail "accepted a non-independent database"
    with Invalid_argument _ -> ()

let test_median_jaccard_independent () =
  let g = rng () in
  for iter = 1 to 15 do
    (* include some certain and near-zero tuples *)
    let n = 2 + Prng.int g 5 in
    let db =
      if iter mod 3 = 0 then
        Db.independent
          (List.init n (fun i ->
               let p =
                 match i mod 3 with 0 -> 1.0 | 1 -> Prng.uniform g | _ -> 0.3
               in
               (i, float_of_int (i * 10) +. Prng.uniform g, p)))
      else Gen.independent_db g n
    in
    let med = Set_consensus.median_jaccard db in
    let best = exact_optimum db (Api.World (Api.Set_jaccard, Api.Median)) in
    check_float "independent Jaccard median" best
      (Set_consensus.expected_jaccard db med);
    Alcotest.(check bool) "median is possible" true
      (Tree.world_is_possible ~eq:( = ) (fst (Tree.index (Db.tree db))) med)
  done

(* Regression (forced-tuple epsilon unification): the independent and BID
   Jaccard medians used different ad-hoc thresholds (1e-12 vs 1e-9) for
   "probability is effectively 1".  Both now route through
   [Set_consensus.forced_marginal]; a tuple whose probability is within
   1e-10 of 1 must be classified forced on both paths, and — since an
   independent database is also BID-shaped — both algorithms must return the
   same world for it. *)
let test_forced_epsilon_unified () =
  let near_one = 1. -. 5e-11 in
  Alcotest.(check bool) "1 - 5e-11 is forced" true
    (Set_consensus.forced_marginal near_one);
  Alcotest.(check bool) "1 - 1e-6 is optional" false
    (Set_consensus.forced_marginal (1. -. 1e-6));
  Alcotest.(check bool) "1 is forced" true (Set_consensus.forced_marginal 1.);
  (* A BID block whose alternative probabilities sum to 1 within 1e-10:
     the key's marginal must be classified forced exactly like an
     independent tuple of the same mass. *)
  let bid = Db.bid [ (0, [ (0.5, 1.); (0.5 -. 5e-11, 2.) ]); (1, [ (0.4, 3.) ]) ] in
  Alcotest.(check bool) "block mass within 1e-10 of 1 is forced" true
    (Set_consensus.forced_marginal (Db.key_marginal bid 0));
  let med_bid = Set_consensus.median_jaccard_bid bid in
  Alcotest.(check bool) "forced block's best alternative in median" true
    (List.exists (fun l -> (Db.alt bid l).Db.key = 0) med_bid);
  (* Same database, both code paths: independent is BID-shaped, so the two
     algorithms must agree tuple-for-tuple now that they share the
     classifier. *)
  let db =
    Db.independent [ (0, 10., near_one); (1, 20., 0.6); (2, 30., 0.05) ]
  in
  let med_ind = Set_consensus.median_jaccard db in
  let med_bid = Set_consensus.median_jaccard_bid db in
  Alcotest.(check (list int)) "independent and BID paths agree" med_ind med_bid;
  Alcotest.(check bool) "near-certain tuple included" true (List.mem 0 med_ind)

let test_median_jaccard_bid () =
  (* The prefix-of-best-alternatives candidate set: check against brute
     force and record agreement (the paper sketches this algorithm). *)
  let g = rng () in
  let agree = ref 0 and total = ref 0 in
  for _ = 1 to 25 do
    let db = Gen.bid_db ~max_alts:2 g (2 + Prng.int g 4) in
    let med = Set_consensus.median_jaccard_bid db in
    let best = exact_optimum db (Api.World (Api.Set_jaccard, Api.Median)) in
    incr total;
    if Fcmp.approx ~eps:1e-9 best (Set_consensus.expected_jaccard db med) then
      incr agree;
    (* the returned world must at least be possible *)
    Alcotest.(check bool) "candidate is possible" true
      (Tree.world_is_possible ~eq:( = ) (fst (Tree.index (Db.tree db))) med)
  done;
  (* The sketch is exact on most instances; require a high agreement rate
     and document the gap in EXPERIMENTS.md (E3). *)
  Alcotest.(check bool)
    (Printf.sprintf "BID median agreement %d/%d" !agree !total)
    true
    (!agree >= (!total * 3) / 5);
  (* x-tuple blocks hold several keys: the candidates pick per block, so
     two alternatives of one block are never returned together. *)
  for _ = 1 to 25 do
    let db = Gen.xtuple_db ~max_alts:3 g (2 + Prng.int g 3) in
    Alcotest.(check bool) "x-tuple candidate is possible" true
      (Tree.world_is_possible ~eq:( = ) (fst (Tree.index (Db.tree db)))
         (Set_consensus.median_jaccard_bid db))
  done;
  (* a block whose only edge has probability 0 keeps no leaf *)
  let alt key p = (p, { Db.key; value = float_of_int key }) in
  let db = Db.create (Tree.bid [ [ alt 0 0. ]; [ alt 1 0.6; alt 2 0.4 ]; [ alt 3 0.7 ] ]) in
  check_float "empty block"
    (exact_optimum db (Api.World (Api.Set_jaccard, Api.Median)))
    (Set_consensus.expected_jaccard db (Set_consensus.median_jaccard_bid db))

(* The prefix sweep polls the ambient deadline once per prefix. *)
let test_jaccard_sweep_deadline () =
  let g = rng () in
  let token = Deadline.make () in
  Deadline.cancel token;
  List.iter
    (fun (name, f, db) ->
      match Deadline.with_current token (fun () -> f db) with
      | _ -> Alcotest.failf "%s ignored a cancelled deadline" name
      | exception Deadline.Expired -> ())
    [ ("mean_jaccard", Set_consensus.mean_jaccard, Gen.independent_db g 8);
      ("median_jaccard", Set_consensus.median_jaccard, Gen.independent_db g 8);
      ("median_jaccard_bid", Set_consensus.median_jaccard_bid, Gen.bid_db g 4) ]

(* =================== Top-k consensus (§5) =================== *)

let random_ctx g ?(n = 5) ?(k = 2) kind =
  let db =
    match kind with
    | `Indep -> Gen.independent_db g n
    | `Bid -> Gen.bid_db g n
    | `Tree -> Gen.random_tree_db g n
    | `Keyed -> Gen.random_keyed_tree g n
  in
  Topk_consensus.make_ctx db ~k

let kinds = [ `Indep; `Bid; `Tree; `Keyed ]

let test_topk_evaluators_vs_enum () =
  let g = rng () in
  List.iter
    (fun kind ->
      for _ = 1 to 6 do
        let ctx = random_ctx g ~n:(3 + Prng.int g 4) ~k:2 kind in
        let keys = Db.keys (Topk_consensus.db ctx) in
        if Array.length keys >= 2 then begin
          let tau = [| keys.(0); keys.(1) |] in
          check_float "sym diff evaluator"
            (topk_expected ctx Api.Sym_diff tau)
            (Topk_consensus.expected_sym_diff ctx tau);
          check_float "intersection evaluator"
            (topk_expected ctx Api.Intersection tau)
            (Topk_consensus.expected_intersection ctx tau);
          check_float "footrule evaluator"
            (topk_expected ctx Api.Footrule tau)
            (Topk_consensus.expected_footrule ctx tau);
          check_float "kendall evaluator"
            (topk_expected ctx Api.Kendall tau)
            (Topk_consensus.expected_kendall ctx tau)
        end
      done)
    kinds

let test_topk_evaluators_partial_lists () =
  let g = rng () in
  for _ = 1 to 10 do
    let ctx = random_ctx g ~n:4 ~k:3 `Tree in
    let keys = Db.keys (Topk_consensus.db ctx) in
    let tau = [| keys.(0) |] in
    check_float "short list symdiff"
      (topk_expected ctx Api.Sym_diff tau)
      (Topk_consensus.expected_sym_diff ctx tau);
    check_float "short list intersection"
      (topk_expected ctx Api.Intersection tau)
      (Topk_consensus.expected_intersection ctx tau);
    check_float "empty list symdiff"
      (topk_expected ctx Api.Sym_diff [||])
      (Topk_consensus.expected_sym_diff ctx [||])
  done

let test_theorem3_mean_sym_diff () =
  let g = rng () in
  List.iter
    (fun kind ->
      for _ = 1 to 5 do
        let ctx = random_ctx g ~n:(4 + Prng.int g 3) ~k:2 kind in
        let mean = Topk_consensus.mean_sym_diff ctx in
        let best = topk_optimum ctx Api.Sym_diff Api.Mean in
        check_float "theorem 3" best (Topk_consensus.expected_sym_diff ctx mean)
      done)
    kinds

let test_theorem4_median_sym_diff () =
  let g = rng () in
  List.iter
    (fun kind ->
      for _ = 1 to 6 do
        let ctx = random_ctx g ~n:(4 + Prng.int g 3) ~k:2 kind in
        let median = Topk_consensus.median_sym_diff ctx in
        let best = topk_optimum ctx Api.Sym_diff Api.Median in
        check_float "theorem 4 DP optimal" best
          (Topk_consensus.expected_sym_diff ctx median)
      done)
    kinds

let test_median_is_possible_answer () =
  let g = rng () in
  for _ = 1 to 10 do
    let ctx = random_ctx g ~n:5 ~k:2 `Tree in
    let median = Topk_consensus.median_sym_diff ctx in
    let worlds = Worlds.enumerate (Db.tree (Topk_consensus.db ctx)) in
    let answers =
      List.map
        (fun (_, w) ->
          Consensus_ranking.Topk_list.of_world ~k:2 w |> Array.to_list
          |> List.sort compare)
        worlds
    in
    let m = Array.to_list median |> List.sort compare in
    Alcotest.(check bool) "DP answer realized by some world" true
      (List.mem m answers)
  done

let test_mean_intersection_optimal () =
  let g = rng () in
  List.iter
    (fun kind ->
      for _ = 1 to 4 do
        let ctx = random_ctx g ~n:(4 + Prng.int g 2) ~k:2 kind in
        let mean = Topk_consensus.mean_intersection ctx in
        let best = topk_optimum ctx Api.Intersection Api.Mean in
        check_float "assignment optimal (§5.3)" best
          (Topk_consensus.expected_intersection ctx mean)
      done)
    kinds

let test_upsilon_approximation_bound () =
  (* ΥH answer within H_k of the optimum on the A(τ) objective implies the
     expected-distance gap bound; check the distance ratio directly. *)
  let g = rng () in
  for _ = 1 to 10 do
    let ctx = random_ctx g ~n:6 ~k:3 `Bid in
    let exact = Topk_consensus.mean_intersection ctx in
    let approx = Topk_consensus.mean_intersection_upsilon ctx in
    let de = Topk_consensus.expected_intersection ctx exact in
    let da = Topk_consensus.expected_intersection ctx approx in
    Alcotest.(check bool)
      (Printf.sprintf "upsilon close to optimal (%g vs %g)" da de)
      true
      (da >= de -. 1e-9 && da <= de +. 0.5)
  done

let test_mean_footrule_optimal () =
  let g = rng () in
  List.iter
    (fun kind ->
      for _ = 1 to 4 do
        let ctx = random_ctx g ~n:(4 + Prng.int g 2) ~k:2 kind in
        let mean = Topk_consensus.mean_footrule ctx in
        let best = topk_optimum ctx Api.Footrule Api.Mean in
        check_float "footrule assignment optimal (§5.4)" best
          (Topk_consensus.expected_footrule ctx mean)
      done)
    kinds

let test_kendall_heuristics_quality () =
  let g = rng () in
  for _ = 1 to 8 do
    let ctx = random_ctx g ~n:5 ~k:2 `Tree in
    let best = topk_optimum ctx Api.Kendall Api.Mean in
    let piv = Topk_consensus.mean_kendall_pivot g ctx in
    let d_piv = Topk_consensus.expected_kendall ctx piv in
    Alcotest.(check bool)
      (Printf.sprintf "pivot-based within 2x (%g vs %g)" d_piv best)
      true
      (d_piv <= (2. *. best) +. 1e-6);
    let fr = Topk_consensus.mean_footrule ctx in
    let d_fr = Topk_consensus.expected_kendall ctx fr in
    Alcotest.(check bool)
      (Printf.sprintf "footrule 2-approx for kendall (%g vs %g)" d_fr best)
      true
      (d_fr <= (2. *. best) +. 1e-6)
  done

(* At k = 1, K_min between two one-key answers is 1 when they differ and 0
   when they agree, and 0 against an empty world's answer, so
   E d_K([a]) = Pr(pw non-empty) - Pr(r(a) = 1) for every key a. *)
let test_kendall_top1_closed_form () =
  let g = rng () in
  List.iter
    (fun kind ->
      for _ = 1 to 3 do
        let ctx = random_ctx g ~n:(3 + Prng.int g 3) ~k:1 kind in
        let db = Topk_consensus.db ctx in
        let nonempty =
          1. -. Consensus_poly.Poly1.coeff (Marginals.size_distribution db) 0
        in
        Array.iter
          (fun key ->
            let tau = [| key |] in
            let closed = nonempty -. Topk_consensus.rank_leq ctx key in
            check_float "closed form vs oracle" (topk_expected ctx Api.Kendall tau) closed;
            check_float "closed form vs evaluator" closed
              (Topk_consensus.expected_kendall ctx tau))
          (Db.keys db)
      done)
    kinds

let test_mc_estimator_matches_closed_forms () =
  let g = rng () in
  (* Large enough that enumeration is impossible; MC must approach the
     generating-function closed forms. *)
  let db = Gen.bid_db g 60 in
  let ctx = Topk_consensus.make_ctx db ~k:5 in
  let tau = Topk_consensus.mean_sym_diff ctx in
  let close exact metric =
    let est =
      Worlds.monte_carlo g ~samples:20_000 (Db.arena db) ~f:(fun ids ->
          Topk_consensus.eval_metric metric ~k:5 tau
            (Consensus_ranking.Topk_list.of_world ~k:5 (List.map (Db.alt db) ids)))
    in
    Alcotest.(check bool)
      (Printf.sprintf "MC close (%g vs %g)" est exact)
      true
      (abs_float (est -. exact) < 0.05 *. Float.max 1. exact)
  in
  close (Topk_consensus.expected_sym_diff ctx tau) Topk_consensus.Sym_diff;
  close (Topk_consensus.expected_intersection ctx tau) Topk_consensus.Intersection;
  close (Topk_consensus.expected_footrule ctx tau) Topk_consensus.Footrule;
  close (Topk_consensus.expected_kendall ctx tau) Topk_consensus.Kendall

(* The §5.5 evaluator against the enumeration oracle on full-length
   answers that leave keys out: [expected_kendall] reads one ordered joint
   per (τ-earlier, later) pair inside τ, and per answer key either a joint
   with each outside key or, where that takes fewer joint runs, the key's
   O_i total less its joints with the other τ keys. *)
let test_kendall_evaluators_vs_oracle () =
  let g = rng () in
  let shapes =
    [
      ("tree", fun k -> Gen.random_tree_db g (k + 1 + Prng.int g 4));
      ("bid", fun k -> Gen.bid_db g (k + 1 + Prng.int g 2));
      ("xtuple", fun _ -> Gen.xtuple_db g (2 + Prng.int g 2));
    ]
  in
  let rec draw make k =
    let db = make k in
    if Db.num_keys db > k && Db.num_alts db <= 12 then db else draw make k
  in
  List.iter
    (fun k ->
      List.iter
        (fun (shape, make) ->
          for _ = 1 to 3 do
            let db = draw make k in
            let ctx = Topk_consensus.make_ctx db ~k in
            let keys = Array.copy (Db.keys db) in
            Prng.shuffle g keys;
            let tau = Array.sub keys 0 k in
            let name what = Printf.sprintf "%s k=%d: %s" shape k what in
            check_float (name "kendall evaluator")
              (topk_expected ctx Api.Kendall tau)
              (Topk_consensus.expected_kendall ctx tau)
          done)
        shapes)
    [ 2; 3; 4 ]

(* [expected_kendall] against the oracle on answers of every length up to
   k, shorter ones included, at k = 1, 2 and n: each answer key sums its
   outside pairs either joint by joint or from its O_i total, and the
   lengths and positions here take both sums. *)
let test_kendall_short_answers_vs_oracle () =
  let g = rng () in
  let shapes =
    [
      ("tree", fun () -> Gen.random_tree_db g (3 + Prng.int g 4));
      ("bid", fun () -> Gen.bid_db g (2 + Prng.int g 3));
      ("xtuple", fun () -> Gen.xtuple_db g (2 + Prng.int g 2));
    ]
  in
  List.iter
    (fun (shape, make) ->
      for _ = 1 to 4 do
        let db = make () in
        let n = Db.num_keys db in
        List.iter
          (fun k ->
            let ctx = Topk_consensus.make_ctx db ~k in
            for len = 0 to min k n do
              let keys = Array.copy (Db.keys db) in
              Prng.shuffle g keys;
              let tau = Array.sub keys 0 len in
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s n=%d k=%d |τ|=%d" shape n k len)
                (topk_expected ctx Api.Kendall tau)
                (Topk_consensus.expected_kendall ctx tau)
            done)
          (List.sort_uniq compare [ 1; 2; n ])
      done)
    shapes

let test_ctx_requires_distinct_scores () =
  let db = Db.independent [ (0, 1., 0.5); (1, 1., 0.5) ] in
  try
    ignore (Topk_consensus.make_ctx db ~k:1);
    Alcotest.fail "tied scores accepted"
  with Invalid_argument _ -> ()

(* The context takes each key's rank row from the rank table by position.
   On every shape — the BID/x-tuple sweep and the per-key path of general
   trees — and with keys that are neither consecutive nor in generation
   order, every key's Pr(r <= k) must be the one [Marginals.rank_leq]
   computes for that key. *)
let test_ctx_rank_rows_aligned () =
  let g = rng () in
  let scatter db =
    Db.create
      (Consensus_anxor.Tree.map
         (fun (a : Db.alt) -> { a with Db.key = (a.Db.key * 37 mod 101 * 3) + 1 })
         (Db.tree db))
  in
  List.iter
    (fun (shape, make) ->
      for _ = 1 to 4 do
        let db = scatter (make ()) in
        List.iter
          (fun k ->
            let ctx = Topk_consensus.make_ctx db ~k in
            Array.iter
              (fun key ->
                Alcotest.(check (float 1e-9))
                  (Printf.sprintf "%s k=%d key %d" shape k key)
                  (Marginals.rank_leq db key ~k)
                  (Topk_consensus.rank_leq ctx key))
              (Db.keys db))
          [ 1; 2; 5 ]
      done)
    [
      ("bid", fun () -> Gen.bid_db g (3 + Prng.int g 10));
      ("x-tuple", fun () -> Gen.xtuple_db g (2 + Prng.int g 6));
      ("tree", fun () -> Gen.random_tree_db g (3 + Prng.int g 10));
      ("keyed tree", fun () -> Gen.random_keyed_tree g (3 + Prng.int g 10));
    ]

(* =================== Aggregates (§6.1) =================== *)

let test_aggregate_mean_and_variance () =
  let g = rng () in
  for _ = 1 to 10 do
    let n = 2 + Prng.int g 4 and m = 2 + Prng.int g 2 in
    let probs = Gen.groupby_matrix g ~n ~m in
    let inst = Aggregate_consensus.create probs in
    let r_bar = Aggregate_consensus.mean inst in
    check_float "mean via enumeration"
      (Exact.expected_aggregate probs r_bar)
      (Aggregate_consensus.expected_sq_dist inst r_bar);
    (* A deliberately off-mean candidate. *)
    let c = Array.map (fun v -> v +. 0.5) r_bar in
    check_float "bias-variance identity"
      (Exact.expected_aggregate probs c)
      (Aggregate_consensus.expected_sq_dist inst c)
  done

let test_aggregate_median_exact () =
  let g = rng () in
  for _ = 1 to 15 do
    let n = 2 + Prng.int g 4 and m = 2 + Prng.int g 2 in
    let probs = Gen.groupby_matrix g ~n ~m in
    let inst = Aggregate_consensus.create probs in
    let _, counts = Aggregate_consensus.median inst in
    let brute_counts, _ = Exact.solve_aggregate probs Api.Median in
    check_float "flow median = brute force median"
      (Aggregate_consensus.expected_sq_dist inst brute_counts)
      (Aggregate_consensus.expected_sq_dist inst counts)
  done

let test_aggregate_median_is_possible () =
  let g = rng () in
  for _ = 1 to 10 do
    let n = 3 + Prng.int g 4 and m = 2 + Prng.int g 3 in
    let inst = Aggregate_consensus.create (Gen.groupby_matrix g ~n ~m) in
    let assignment, counts = Aggregate_consensus.median inst in
    (* witness consistency *)
    Alcotest.(check (array (float 1e-9)))
      "witness counts match"
      (Aggregate_consensus.counts_of_assignment inst assignment)
      counts;
    let int_counts = Array.map int_of_float counts in
    Alcotest.(check bool) "vector is possible" true
      (Aggregate_consensus.is_possible inst int_counts);
    (* witness respects supports *)
    let p = Aggregate_consensus.probs inst in
    Array.iteri
      (fun i v -> Alcotest.(check bool) "support" true (p.(i).(v) > 0.))
      assignment
  done

let test_aggregate_paper_network_agrees () =
  let g = rng () in
  for _ = 1 to 15 do
    let n = 2 + Prng.int g 5 and m = 2 + Prng.int g 3 in
    let inst = Aggregate_consensus.create (Gen.groupby_matrix g ~n ~m) in
    let _, c1 = Aggregate_consensus.median inst in
    let _, c2 = Aggregate_consensus.median_paper_network inst in
    (* Both restricted forms minimize ||r - r̄||²; Lemma 3 says the optima
       coincide. *)
    check_float "Theorem 5 network agrees with convex flow"
      (Aggregate_consensus.expected_sq_dist inst c1)
      (Aggregate_consensus.expected_sq_dist inst c2)
  done;
  (* At scale the verbatim network is the reference, and the group search
     must also hand back a witness that realizes its counts. *)
  let agrees name p =
    let inst = Aggregate_consensus.create p in
    let assignment, c1 = Aggregate_consensus.median inst in
    let _, c2 = Aggregate_consensus.median_paper_network inst in
    let d1 = Aggregate_consensus.expected_sq_dist inst c1
    and d2 = Aggregate_consensus.expected_sq_dist inst c2 in
    if not (Fcmp.approx ~eps:1e-9 d1 d2) then
      Alcotest.failf "%s: group search %.12g, Theorem 5 network %.12g" name d1 d2;
    Alcotest.(check (array (float 1e-9)))
      (name ^ ": witness counts match")
      (Aggregate_consensus.counts_of_assignment inst assignment)
      c1;
    Array.iteri
      (fun i v ->
        if not (p.(i).(v) > 0.) then
          Alcotest.failf "%s: tuple %d assigned outside its support" name i)
      assignment
  in
  List.iter
    (fun (n, m, zipf) ->
      agrees
        (Printf.sprintf "groupby %dx%d zipf %g" n m zipf)
        (Gen.groupby_matrix ~zipf g ~n ~m))
    (List.concat_map
       (fun n ->
         List.concat_map (fun m -> [ (n, m, 0.); (n, m, 2.) ]) [ 1; 4; 16; 32 ])
       [ 50; 300; 600 ]);
  (* Row i supports {i mod m, (i+1) mod m}: the early half leans on the
     group the next row needs, so later rows reach a cheap group only
     through long alternating paths. *)
  let chain ~n ~m =
    Array.init n (fun i ->
        let row = Array.make m 0. in
        let lean = if 2 * i < n then 0.9 else 0.1 in
        row.(i mod m) <- 1. -. lean;
        row.((i + 1) mod m) <- lean;
        row)
  in
  let single ~n ~m =
    Array.init n (fun _ ->
        let row = Array.make m 0. in
        row.(Prng.int g m) <- 1.;
        row)
  in
  (* every marginal cost ties *)
  let uniform ~n ~m = Array.init n (fun _ -> Array.make m (1. /. float_of_int m)) in
  List.iter
    (fun (n, m) ->
      agrees (Printf.sprintf "chain %dx%d" n m) (chain ~n ~m);
      agrees (Printf.sprintf "single support %dx%d" n m) (single ~n ~m);
      agrees (Printf.sprintf "uniform %dx%d" n m) (uniform ~n ~m))
    [ (50, 4); (300, 16); (600, 32); (40, 2000); (2, 20000) ];
  (* far more groups than tuples: the search's count matrix must stay the
     size of the input, not m² *)
  agrees "groupby 2x20000" (Gen.groupby_matrix ~zipf:0. g ~n:2 ~m:20000)

let test_aggregate_4_approx_certificate () =
  (* Corollary 2 bound: E[d(r*, r)] <= 4 E[d(median, r)]; with the exact
     median the ratio is 1, so anything <= 4 trivially holds — verify the
     sharper statement that the ratio is exactly 1. *)
  let g = rng () in
  for _ = 1 to 10 do
    let n = 2 + Prng.int g 3 and m = 2 + Prng.int g 2 in
    let probs = Gen.groupby_matrix g ~n ~m in
    let inst = Aggregate_consensus.create probs in
    let _, counts = Aggregate_consensus.median inst in
    let brute, _ = Exact.solve_aggregate probs Api.Median in
    let d_flow = Aggregate_consensus.expected_sq_dist inst counts in
    let d_brute = Aggregate_consensus.expected_sq_dist inst brute in
    Alcotest.(check bool) "ratio = 1" true (Fcmp.approx ~eps:1e-6 d_flow d_brute)
  done

let test_aggregate_is_possible_negative () =
  let inst =
    Aggregate_consensus.create [| [| 1.; 0. |]; [| 1.; 0. |] |]
  in
  Alcotest.(check bool) "impossible vector" false
    (Aggregate_consensus.is_possible inst [| 0; 2 |]);
  Alcotest.(check bool) "possible vector" true
    (Aggregate_consensus.is_possible inst [| 2; 0 |]);
  Alcotest.(check bool) "wrong total" false
    (Aggregate_consensus.is_possible inst [| 1; 0 |])

let test_aggregate_validation () =
  (try
     ignore (Aggregate_consensus.create [| [| 0.5; 0.2 |] |]);
     Alcotest.fail "non-stochastic row accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Aggregate_consensus.create [| [| 1.5; -0.5 |] |]);
    Alcotest.fail "invalid probabilities accepted"
  with Invalid_argument _ -> ()

(* =================== Clustering (§6.2) =================== *)

let test_cluster_weights_vs_enum () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Gen.clustering_db g (2 + Prng.int g 3) in
    let t = Cluster_consensus.make db in
    let nk = Cluster_consensus.num_keys t in
    let worlds = Worlds.enumerate (Db.tree db) in
    for i = 0 to nk - 1 do
      for j = i + 1 to nk - 1 do
        let direct =
          List.fold_left
            (fun acc (p, w) ->
              let c = Cluster_consensus.clustering_of_world t w in
              if c.(i) = c.(j) then acc +. p else acc)
            0. worlds
        in
        check_float "co-occurrence weight" direct (Cluster_consensus.weight t i j)
      done
    done
  done

let test_cluster_expected_dist_vs_enum () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Gen.clustering_db g (2 + Prng.int g 3) in
    let t = Cluster_consensus.make db in
    let nk = Cluster_consensus.num_keys t in
    let c = Array.init nk (fun i -> i mod 2) in
    check_float "expected distance closed form"
      (exact_expected db cluster_q (Exact.Clustering c))
      (Cluster_consensus.expected_dist t c)
  done

let test_cluster_pivot_quality () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Gen.clustering_db g (3 + Prng.int g 3) in
    let t = Cluster_consensus.make db in
    let opt = exact_optimum db cluster_q in
    let c = Cluster_consensus.best_pivot_of g ~trials:5 t in
    let d = Cluster_consensus.expected_dist t c in
    Alcotest.(check bool)
      (Printf.sprintf "pivot within 2x (%g vs %g)" d opt)
      true
      (d <= (2. *. opt) +. 1e-9)
  done

(* Local search is no worse than its start and ends at a stable point of
   the definition: with cost_with recomputed naively, O(n) per candidate, no
   single move of any key to any used label or to a fresh one improves the
   expected distance by more than 1e-9.  Starts cover pivot labellings,
   gapped negative relabellings of them, and random labellings (whose
   clusters empty and refill). *)
let test_cluster_local_search () =
  let g = rng () in
  for iter = 1 to 45 do
    let n = 2 + Prng.int g 60 in
    let db =
      if iter mod 2 = 0 then Gen.clustering_db g n else Gen.bid_db ~max_alts:2 g n
    in
    let t = Cluster_consensus.make db in
    let c0 =
      match iter mod 3 with
      | 0 -> Cluster_consensus.pivot g t
      | 1 -> Array.map (fun l -> (3 * l) - 4) (Cluster_consensus.pivot g t)
      | _ -> Array.init n (fun _ -> Prng.int g 6)
    in
    let c = Cluster_consensus.local_search t c0 in
    Alcotest.(check bool) "local search no worse" true
      (Cluster_consensus.expected_dist t c
      <= Cluster_consensus.expected_dist t c0 +. 1e-9);
    let cost_with l i =
      let acc = ref 0. in
      for j = 0 to n - 1 do
        if j <> i then
          let w = Cluster_consensus.weight t i j in
          acc := !acc +. if c.(j) = l then 1. -. w else w
      done;
      !acc
    in
    let fresh = 1 + Array.fold_left max min_int c in
    let labels = fresh :: List.sort_uniq compare (Array.to_list c) in
    for i = 0 to n - 1 do
      let current = cost_with c.(i) i in
      List.iter
        (fun l ->
          let d = current -. cost_with l i in
          if d > 1e-9 then
            Alcotest.failf "moving key %d of %d from label %d to %d gains %g" i n
              c.(i) l d)
        labels
    done
  done

(* Labels as the per-candidate search gave them, on a 4-key instance with
   gapped starting labels: the searches empty the highest label and then
   open a fresh one, one above the highest used label (7 after 6, where 9
   was). *)
let test_cluster_local_search_labels () =
  let db =
    Db.bid
      [
        (0, [ (1.0, 1.) ]);
        (1, [ (0.519299, 1.) ]);
        (2, [ (0.266808, 1.); (0.313924, 2.) ]);
        (3, [ (0.458504, 0.); (0.154148, 2.) ]);
      ]
  in
  let t = Cluster_consensus.make db in
  List.iter
    (fun (c0, expected) ->
      Alcotest.(check (array int)) "labels" expected (Cluster_consensus.local_search t c0))
    [
      ([| 9; 6; 0; 0 |], [| 6; 6; 7; 0 |]);
      ([| 6; 3; 0; 0 |], [| 3; 3; 4; 0 |]);
      ([| 9; 6; 3; 3 |], [| 6; 6; 7; 3 |]);
      ([| 6; 0; 3; 3 |], [| 0; 0; 4; 3 |]);
      ([| 0; 3; 6; 9 |], [| 3; 3; 6; 9 |]);
    ]

(* A local-search candidate is O(1) and a move O(n), on per-label columns
   updated in place: on one domain, from the best of 8 pivots, the search at
   300 keys allocates a fraction of a minor word per key pair.  The
   per-candidate recomputation and per-key label sort it replaced allocated
   ~95 per pair here and fail this bound. *)
let test_cluster_local_search_allocation_bound () =
  let n = 300 in
  Consensus_engine.Pool.with_pool ~jobs:1 @@ fun pool ->
  let g = rng () in
  let t = Cluster_consensus.make ~pool (Gen.bid_db ~max_alts:2 g n) in
  let c0 = Cluster_consensus.best_pivot_of g ~trials:8 t in
  let before = Gc.minor_words () in
  ignore (Cluster_consensus.local_search t c0);
  let per_pair = (Gc.minor_words () -. before) /. float_of_int (n * n) in
  if per_pair > 2. then
    Alcotest.failf "local_search allocates %.2f minor words per key pair" per_pair

let test_cluster_distance_axioms () =
  let c1 = [| 0; 0; 1 |] and c2 = [| 0; 1; 1 |] and c3 = [| 0; 1; 2 |] in
  Alcotest.(check int) "self" 0 (Cluster_consensus.distance c1 c1);
  Alcotest.(check int) "symmetric" (Cluster_consensus.distance c1 c2)
    (Cluster_consensus.distance c2 c1);
  Alcotest.(check bool) "triangle" true
    (Cluster_consensus.distance c1 c3
    <= Cluster_consensus.distance c1 c2 + Cluster_consensus.distance c2 c3);
  (* label-invariance through normalize *)
  Alcotest.(check (array int)) "normalize" [| 0; 0; 1 |]
    (Cluster_consensus.normalize [| 7; 7; 3 |])

let test_cluster_best_of_worlds () =
  let g = rng () in
  let db = Gen.clustering_db g 4 in
  let t = Cluster_consensus.make db in
  let c = Cluster_consensus.best_of_worlds g ~samples:50 t in
  let opt = exact_optimum db cluster_q in
  (* sampled best-of-worlds is a 2-approximation in expectation; allow 3x
     for sampling noise. *)
  Alcotest.(check bool) "best-of-worlds reasonable" true
    (Cluster_consensus.expected_dist t c <= (3. *. opt) +. 1e-9)

(* Each weight is the pair-by-pair definition to the bit: the same-value
   joint plus the both-absent probability, from [Db]'s per-pair folds.
   x-tuple blocks, random trees and keyed trees put leaves of distinct keys
   under one xor node, where the product-of-marginals shortcut must not
   apply. *)
(* The inclusion-exclusion of [make] can cancel a zero weight to -1e-16
   on x-tuple databases; every weight is a probability all the same. *)
let test_cluster_weights_in_unit_interval () =
  let g = Prng.create ~seed:2025 () in
  for iter = 1 to 2000 do
    let t = Cluster_consensus.make (Gen.xtuple_db g (2 + Prng.int g 14)) in
    let nk = Cluster_consensus.num_keys t in
    for i = 0 to nk - 1 do
      for j = 0 to nk - 1 do
        let w = Cluster_consensus.weight t i j in
        if not (w >= 0. && w <= 1.) then
          Alcotest.failf "database %d, keys %d and %d: weight %h" iter i j w
      done
    done
  done

let test_cluster_weights_pair_by_pair () =
  let g = rng () in
  for iter = 0 to 99 do
    let n = 2 + Prng.int g 14 in
    let db =
      match iter mod 5 with
      | 0 -> Gen.clustering_db g n
      | 1 -> Gen.bid_db g n
      | 2 -> Gen.xtuple_db g n
      | 3 -> Gen.random_tree_db g n
      | _ -> Gen.random_keyed_tree g n
    in
    let t = Cluster_consensus.make db in
    let keys = Db.keys db in
    let nk = Array.length keys in
    let bits = Int64.bits_of_float in
    for i = 0 to nk - 1 do
      for j = i + 1 to nk - 1 do
        let expected =
          Db.key_pair_joint db keys.(i) keys.(j) ~f:(fun a b -> a.Db.value = b.Db.value)
          +. Db.key_pair_absent db keys.(i) keys.(j)
          |> Float.max 0. |> Float.min 1.
        in
        let w = Cluster_consensus.weight t i j in
        if bits w <> bits expected || bits w <> bits (Cluster_consensus.weight t j i)
        then
          Alcotest.failf "iteration %d, keys %d and %d: weight %h, pair by pair %h"
            iter i j w expected
      done
    done
  done

(* CC-Pivot as a list of unassigned keys: the (Prng.int rng u)-th of the u
   unassigned keys, ascending, is the next pivot. *)
let pivot_list_reference rng t =
  let nk = Cluster_consensus.num_keys t in
  let labels = Array.make nk (-1) in
  let unassigned = ref (List.init nk Fun.id) in
  let next_label = ref 0 in
  while !unassigned <> [] do
    let arr = Array.of_list !unassigned in
    let p = arr.(Prng.int rng (Array.length arr)) in
    let label = !next_label in
    incr next_label;
    labels.(p) <- label;
    unassigned :=
      List.filter
        (fun i ->
          if i = p then false
          else if Cluster_consensus.weight t i p > 0.5 then begin
            labels.(i) <- label;
            false
          end
          else true)
        !unassigned
  done;
  labels

let test_cluster_pivot_list_reference () =
  for seed = 0 to 199 do
    let g = Prng.create ~seed () in
    let n = 1 + Prng.int g 40 in
    let db =
      if seed mod 2 = 0 then Gen.clustering_db g n else Gen.bid_db ~max_alts:2 g n
    in
    let t = Cluster_consensus.make db in
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d" seed)
      (pivot_list_reference (Prng.create ~seed ()) t)
      (Cluster_consensus.pivot (Prng.create ~seed ()) t)
  done

(* Answers read off a per-key score take the k best keys, ties to the lower
   index in [Db.keys] order: a stable descending sort's prefix. *)
let test_topk_tie_rule () =
  (* one x-tuple block of ten equally likely keys: every key has
     Pr(r <= k) = 0.1 exactly, so the answer is the first k keys *)
  let db =
    Db.create
      (Tree.bid [ List.init 10 (fun key -> (0.1, { Db.key; value = float_of_int key })) ])
  in
  List.iter
    (fun k ->
      let ctx = Topk_consensus.make_ctx db ~k in
      let first = Array.init k Fun.id in
      Alcotest.(check (array int)) (Printf.sprintf "mean, k = %d" k) first
        (Topk_consensus.mean_sym_diff ctx);
      Alcotest.(check (array int)) (Printf.sprintf "upsilon, k = %d" k) first
        (Topk_consensus.mean_intersection_upsilon ctx))
    [ 1; 3; 10 ];
  let g = rng () in
  let values = [| 0.; -0.; 1.; 2.; Float.nan; -1.; Float.infinity |] in
  for _ = 1 to 300 do
    let score =
      Array.init (Prng.int g 40) (fun _ -> values.(Prng.int g (Array.length values)))
    in
    let m = Prng.int g 45 in
    let sorted =
      List.stable_sort
        (fun a b -> Float.compare score.(b) score.(a))
        (List.init (Array.length score) Fun.id)
    in
    let expected = Array.of_list (List.filteri (fun i _ -> i < m) sorted) in
    Alcotest.(check (array int)) "stable sort prefix" expected (Heap.top_indices score m)
  done

let suite =
  [
    Alcotest.test_case "symdiff closed form" `Quick test_expected_sym_diff_closed_form;
    Alcotest.test_case "theorem 2: mean world" `Quick test_mean_sym_diff_optimal;
    Alcotest.test_case "median world DP optimal" `Quick test_median_sym_diff_optimal;
    Alcotest.test_case "corollary 1" `Quick test_corollary1_consistency;
    Alcotest.test_case "lemma 1: jaccard genfunc" `Quick test_expected_jaccard_vs_enum;
    Alcotest.test_case "lemma 2: jaccard mean" `Quick test_mean_jaccard_optimal;
    Alcotest.test_case "jaccard mean guards" `Quick test_mean_jaccard_requires_independence;
    Alcotest.test_case "jaccard independent median" `Quick test_median_jaccard_independent;
    Alcotest.test_case "forced epsilon unified" `Quick test_forced_epsilon_unified;
    Alcotest.test_case "jaccard BID median" `Quick test_median_jaccard_bid;
    Alcotest.test_case "topk evaluators vs enum" `Quick test_topk_evaluators_vs_enum;
    Alcotest.test_case "topk evaluators partial lists" `Quick test_topk_evaluators_partial_lists;
    Alcotest.test_case "theorem 3: mean topk" `Quick test_theorem3_mean_sym_diff;
    Alcotest.test_case "theorem 4: median topk DP" `Quick test_theorem4_median_sym_diff;
    Alcotest.test_case "median topk is possible" `Quick test_median_is_possible_answer;
    Alcotest.test_case "intersection mean optimal" `Quick test_mean_intersection_optimal;
    Alcotest.test_case "upsilon H_k approximation" `Quick test_upsilon_approximation_bound;
    Alcotest.test_case "footrule mean optimal" `Quick test_mean_footrule_optimal;
    Alcotest.test_case "kendall heuristics quality" `Quick test_kendall_heuristics_quality;
    Alcotest.test_case "kendall top-1 closed form" `Quick test_kendall_top1_closed_form;
    Alcotest.test_case "MC estimator vs closed forms" `Slow test_mc_estimator_matches_closed_forms;
    Alcotest.test_case "ctx validation" `Quick test_ctx_requires_distinct_scores;
    Alcotest.test_case "aggregate mean + variance" `Quick test_aggregate_mean_and_variance;
    Alcotest.test_case "aggregate median exact" `Quick test_aggregate_median_exact;
    Alcotest.test_case "aggregate median possible" `Quick test_aggregate_median_is_possible;
    Alcotest.test_case "theorem 5 network" `Quick test_aggregate_paper_network_agrees;
    Alcotest.test_case "corollary 2 ratio" `Quick test_aggregate_4_approx_certificate;
    Alcotest.test_case "aggregate possibility check" `Quick test_aggregate_is_possible_negative;
    Alcotest.test_case "aggregate validation" `Quick test_aggregate_validation;
    Alcotest.test_case "cluster weights vs enum" `Quick test_cluster_weights_vs_enum;
    Alcotest.test_case "cluster expected dist" `Quick test_cluster_expected_dist_vs_enum;
    Alcotest.test_case "cluster pivot quality" `Quick test_cluster_pivot_quality;
    Alcotest.test_case "cluster local search" `Quick test_cluster_local_search;
    Alcotest.test_case "cluster local search labels" `Quick
      test_cluster_local_search_labels;
    Alcotest.test_case "cluster local search allocation bound" `Quick
      test_cluster_local_search_allocation_bound;
    Alcotest.test_case "cluster distance axioms" `Quick test_cluster_distance_axioms;
    Alcotest.test_case "cluster best of worlds" `Quick test_cluster_best_of_worlds;
    Alcotest.test_case "ctx rank rows aligned" `Quick test_ctx_rank_rows_aligned;
    Alcotest.test_case "jaccard sweep honours deadlines" `Quick test_jaccard_sweep_deadline;
    Alcotest.test_case "kendall evaluators vs oracle" `Quick
      test_kendall_evaluators_vs_oracle;
    Alcotest.test_case "top-k tie rule" `Quick test_topk_tie_rule;
    Alcotest.test_case "kendall short answers vs oracle" `Quick
      test_kendall_short_answers_vs_oracle;
    Alcotest.test_case "cluster weights match pair-by-pair" `Quick
      test_cluster_weights_pair_by_pair;
    Alcotest.test_case "cluster weights lie in [0, 1]" `Quick
      test_cluster_weights_in_unit_interval;
    Alcotest.test_case "cluster pivot matches list reference" `Quick
      test_cluster_pivot_list_reference;
  ]
