open Consensus_util
open Consensus_poly
open Consensus_anxor

let check_float = Alcotest.(check (float 1e-9))
let check_floatl = Alcotest.(check (float 1e-6))

let poly1_testable = Alcotest.testable Poly1.pp (fun p q -> Poly1.equal ~eps:1e-9 p q)

(* The arena of a generated tree; its leaf indices are [Tree.indexed]'s. *)
let arena_of t = Db.arena (Db.create t)

(* The two and/xor trees of Figure 1 of the paper. *)

let fig1_i () =
  (* Four BID blocks; the paper annotates per-block generating functions
     0.4+0.6x, 0.2+0.8x, x, x and the product 0.08x^2+0.44x^3+0.48x^4. *)
  Db.bid
    [
      (1, [ (0.1, 8.); (0.5, 2.) ]);
      (2, [ (0.4, 3.); (0.4, 4.) ]);
      (3, [ (0.2, 1.); (0.8, 9.) ]);
      (4, [ (0.5, 6.); (0.5, 5.) ]);
    ]

let fig1_iii () =
  (* Three fully-correlated possible worlds (Figure 1 (ii)/(iii)):
     pw1 = {(t3,6),(t2,5),(t1,1)} 0.3; pw2 = {(t3,9),(t1,7),(t4,0)} 0.3;
     pw3 = {(t2,8),(t4,4),(t5,3)} 0.4. *)
  let w prob alts =
    (prob, Tree.and_ (List.map (fun (k, v) -> Tree.leaf { Db.key = k; Db.value = v }) alts))
  in
  Db.create
    (Tree.xor
       [
         w 0.3 [ (3, 6.); (2, 5.); (1, 1.) ];
         w 0.3 [ (3, 9.); (1, 7.); (4, 0.) ];
         w 0.4 [ (2, 8.); (4, 4.); (5, 3.) ];
       ])

let test_figure1_size_distribution () =
  let db = fig1_i () in
  let f = Marginals.size_distribution db in
  Alcotest.check poly1_testable "0.08x^2+0.44x^3+0.48x^4"
    (Poly1.of_coeffs [| 0.; 0.; 0.08; 0.44; 0.48 |])
    f

let test_figure1_block_genfuncs () =
  (* Per-block annotations from Figure 1(i). *)
  let block ps = Db.bid [ (1, List.map (fun p -> (p, 0.)) ps) ] in
  let gf ps = Genfunc.univariate (fun _ -> Poly1.x) (Db.arena (block ps)) in
  Alcotest.check poly1_testable "0.4+0.6x" (Poly1.of_coeffs [| 0.4; 0.6 |]) (gf [ 0.1; 0.5 ]);
  Alcotest.check poly1_testable "0.2+0.8x" (Poly1.of_coeffs [| 0.2; 0.8 |]) (gf [ 0.4; 0.4 ]);
  Alcotest.check poly1_testable "x" Poly1.x (gf [ 0.2; 0.8 ]);
  Alcotest.check poly1_testable "x" Poly1.x (gf [ 0.5; 0.5 ])

let test_figure1_rank () =
  (* Figure 1(iii): the coefficient of y (i.e. of x^0 y) is 0.3 =
     Pr(alternative (t3,6) is ranked first). *)
  let db = fig1_iii () in
  (* Locate the leaf (t3, 6.). *)
  let l36 =
    List.find (fun l -> (Db.alt db l).Db.value = 6.) (Db.alts_of_key db 3)
  in
  let dist = Marginals.rank_dist_alt db l36 ~k:5 in
  check_float "Pr(r(t3,6)=1)" 0.3 dist.(0);
  check_float "Pr(r(t3,6)=2)" 0. dist.(1);
  (* Key-level: t3 is ranked first in pw1 (score 6 top of {6,5,1}) and in
     pw2 (score 9 top of {9,7,0}). *)
  let d3 = Marginals.rank_dist db 3 ~k:3 in
  check_float "Pr(r(t3)=1)" 0.6 d3.(0);
  check_float "Pr(r(t3)=2)" 0. d3.(1);
  (* t1: rank 3 in pw1 ({6,5,1}), rank 2 in pw2 ({9,7,0}). *)
  let d1 = Marginals.rank_dist db 1 ~k:3 in
  check_float "Pr(r(t1)=2)" 0.3 d1.(1);
  check_float "Pr(r(t1)=3)" 0.3 d1.(2)

let test_marginals_figure1 () =
  let db = fig1_i () in
  let l = Db.alts_of_key db 1 in
  (match List.map (fun i -> Db.marginal db i) l with
  | [ p1; p2 ] ->
      check_float "t1 alt probs" 0.1 p1;
      check_float "t1 alt probs" 0.5 p2
  | _ -> Alcotest.fail "expected two alternatives");
  check_float "key marginal" 0.6 (Db.key_marginal db 1);
  check_float "forced key" 1.0 (Db.key_marginal db 3)

let test_enumerate_figure1_iii () =
  let db = fig1_iii () in
  let worlds = Worlds.enumerate (Db.tree db) in
  Alcotest.(check int) "three worlds" 3 (List.length worlds);
  let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. worlds in
  check_float "probabilities sum to 1" 1. total;
  List.iter
    (fun (_, w) -> Alcotest.(check int) "world size 3" 3 (List.length w))
    worlds

(* ---------- Tree structure ---------- *)

let test_tree_validation () =
  Alcotest.check_raises "negative prob"
    (Invalid_argument "Tree.xor: edge probability must be a non-negative float")
    (fun () -> ignore (Tree.xor [ (-0.1, Tree.leaf 0) ]));
  (try
     ignore (Tree.xor [ (0.7, Tree.leaf 0); (0.5, Tree.leaf 1) ]);
     Alcotest.fail "sum > 1 accepted"
   with Invalid_argument _ -> ());
  (* zero-probability edges dropped *)
  match Tree.xor [ (0., Tree.leaf 0); (0.5, Tree.leaf 1) ] with
  | Tree.Xor [ (p, Tree.Leaf 1) ] -> check_float "kept edge" 0.5 p
  | _ -> Alcotest.fail "expected single-edge xor"

(* Ties are [Float.compare] equality: NaN equals NaN, -0. equals 0. *)
let test_scores_distinct () =
  let distinct values =
    Db.scores_distinct (Db.independent (List.mapi (fun key v -> (key, v, 0.5)) values))
  in
  let check name expected values =
    Alcotest.(check bool) name expected (distinct values)
  in
  check "distinct" true [ 3.; 1.; 2. ];
  check "duplicate" false [ 3.; 1.; 2.; 1. ];
  check "-0. ties 0." false [ 0.; 1.; -0. ];
  check "NaN ties NaN" false [ Float.nan; 1.; Float.nan ];
  check "one NaN" true [ Float.nan; 1.; 0. ];
  check "empty" true [];
  (* duplicates across the alternatives of one key *)
  let db = Db.bid [ (1, [ (0.3, 5.); (0.3, 5.) ]); (2, [ (0.5, 4.) ]) ] in
  Alcotest.(check bool) "same-key duplicate" false (Db.scores_distinct db);
  Alcotest.(check bool) "memoized" false (Db.scores_distinct db);
  Alcotest.(check bool) "fig. 1(i)" true (Db.scores_distinct (fig1_i ()))

let test_tree_shape () =
  let t = Tree.independent [ (0.5, 'a'); (0.3, 'b') ] in
  Alcotest.(check int) "leaves" 2 (Tree.num_leaves t);
  Alcotest.(check (list char)) "leaf order" [ 'a'; 'b' ] (Tree.leaves t);
  Alcotest.(check int) "depth" 2
    (Arena.depth (Arena.of_tree ~key:Char.code ~value:(fun _ -> 0.) t));
  Alcotest.(check int) "nodes" 5 (Tree.num_nodes t);
  let it, payloads = Tree.index t in
  Alcotest.(check (list int)) "indices" [ 0; 1 ] (Tree.leaves it);
  Alcotest.(check (array char)) "payloads" [| 'a'; 'b' |] payloads

let test_tree_key_constraint () =
  let bad =
    Tree.and_ [ Tree.leaf { Db.key = 1; value = 1. }; Tree.leaf { Db.key = 1; value = 2. } ]
  in
  (match Arena.check_keys (Db.arena (Db.create ~check:false bad)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "key violation not detected");
  (try
     ignore (Db.create bad);
     Alcotest.fail "Db.create accepted key violation"
   with Invalid_argument _ -> ());
  let good =
    Tree.xor
      [
        (0.5, Tree.leaf { Db.key = 1; value = 1. });
        (0.4, Tree.leaf { Db.key = 1; value = 2. });
      ]
  in
  match Arena.check_keys (Db.arena (Db.create ~check:false good)) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_count_worlds () =
  let t = Tree.independent [ (0.5, 0); (0.5, 1); (0.5, 2) ] in
  check_float "2^3 worlds" 8. (Tree.count_worlds t);
  let t2 = Tree.bid [ [ (0.5, 0); (0.5, 1) ]; [ (0.3, 2) ] ] in
  (* first block: 2 worlds (no residual); second: 2 (alt or nothing) *)
  check_float "4 worlds" 4. (Tree.count_worlds t2)

let test_filter_leaves () =
  let t = Tree.bid [ [ (0.5, 1); (0.5, 2) ]; [ (0.3, 3) ] ] in
  let t' = Tree.filter_leaves (fun v -> v >= 2) t in
  Alcotest.(check (list int)) "kept" [ 2; 3 ] (Tree.leaves t');
  (* The distribution of the remaining leaves is preserved. *)
  let m = Arena.marginals (Arena.of_tree ~key:Fun.id ~value:float_of_int t') in
  check_float "p(2)" 0.5 m.(0);
  check_float "p(3)" 0.3 m.(1)

let test_world_is_possible () =
  let db = fig1_iii () in
  let t = Db.tree db in
  let eq (a : Db.alt) b = a = b in
  let w1 = [ { Db.key = 3; value = 6. }; { Db.key = 2; value = 5. }; { Db.key = 1; value = 1. } ] in
  Alcotest.(check bool) "pw1 possible" true (Tree.world_is_possible ~eq t w1);
  let impossible = [ { Db.key = 3; value = 6. }; { Db.key = 4; value = 0. } ] in
  Alcotest.(check bool) "cross-world impossible" false
    (Tree.world_is_possible ~eq t impossible);
  Alcotest.(check bool) "empty impossible here" false
    (Tree.world_is_possible ~eq t []);
  let t_ind = Tree.independent [ (0.5, 'a'); (0.9, 'b') ] in
  Alcotest.(check bool) "subset possible" true
    (Tree.world_is_possible ~eq:Char.equal t_ind [ 'b' ]);
  Alcotest.(check bool) "empty possible" true
    (Tree.world_is_possible ~eq:Char.equal t_ind [])

(* ---------- Worlds: enumeration consistency ---------- *)

let rng () = Prng.create ~seed:12345 ()

let test_enumeration_total_probability () =
  let g = rng () in
  for _ = 1 to 20 do
    let t = Consensus_workload.Gen.random_tree g (4 + Prng.int g 6) in
    let worlds = Worlds.enumerate t in
    let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. worlds in
    check_floatl "total probability 1" 1. total
  done

let test_size_distribution_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 20 do
    let t = Consensus_workload.Gen.random_tree g (3 + Prng.int g 7) in
    let f = Genfunc.size_distribution (arena_of t) in
    let worlds = Worlds.enumerate t in
    for size = 0 to Poly1.degree f do
      let direct =
        List.fold_left
          (fun acc (p, w) -> if List.length w = size then acc +. p else acc)
          0. worlds
      in
      check_floatl "Pr(|pw|=i) matches" direct (Poly1.coeff f size)
    done
  done

let test_subset_size_distribution () =
  let g = rng () in
  for _ = 1 to 10 do
    let t = Consensus_workload.Gen.random_tree g 8 in
    let it = Tree.indexed t in
    let mem (i, _) = i mod 2 = 0 in
    let f = Genfunc.subset_size_distribution (fun i -> i mod 2 = 0) (arena_of t) in
    let worlds = Worlds.enumerate it in
    for c = 0 to Poly1.degree f do
      let direct =
        List.fold_left
          (fun acc (p, w) ->
            if List.length (List.filter mem w) = c then acc +. p else acc)
          0. worlds
      in
      check_floatl "Pr(|pw ∩ S|=c)" direct (Poly1.coeff f c)
    done
  done

let test_marginals_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 20 do
    let db = Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 8) in
    let worlds = Worlds.enumerate (fst (Tree.index (Db.tree db))) in
    for l = 0 to Db.num_alts db - 1 do
      let direct =
        List.fold_left
          (fun acc (p, w) -> if List.mem l w then acc +. p else acc)
          0. worlds
      in
      check_floatl "marginal" direct (Db.marginal db l)
    done
  done

let test_pair_marginal_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 15 do
    let db = Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 7) in
    let worlds = Worlds.enumerate (fst (Tree.index (Db.tree db))) in
    let n = Db.num_alts db in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let direct =
          List.fold_left
            (fun acc (p, w) -> if List.mem i w && List.mem j w then acc +. p else acc)
            0. worlds
        in
        check_floatl "pair marginal" direct (Db.pair_marginal db i j);
        let direct_absent =
          List.fold_left
            (fun acc (p, w) ->
              if (not (List.mem i w)) && not (List.mem j w) then acc +. p else acc)
            0. worlds
        in
        check_floatl "pair absent" direct_absent (Db.pair_absent db i j)
      done
    done
  done

(* Every leaf's sampled frequency within 5σ of its marginal, σ the binomial
   standard deviation of the frequency over [n] draws. *)
let test_sampling_matches_marginals () =
  let g = rng () in
  let n = 4000 in
  for iter = 1 to 10 do
    let size = 3 + Prng.int g 10 in
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.random_tree_db g size
      else Consensus_workload.Gen.random_keyed_tree g size
    in
    let counts = Array.make (Db.num_alts db) 0 in
    List.iter
      (List.iter (fun l -> counts.(l) <- counts.(l) + 1))
      (Worlds.sample_many g n (Db.arena db));
    Array.iteri
      (fun l c ->
        let p = Db.marginal db l in
        let sigma = sqrt (p *. (1. -. p) /. float_of_int n) in
        let freq = float_of_int c /. float_of_int n in
        if abs_float (freq -. p) > (5. *. sigma) +. 1e-12 then
          Alcotest.failf "leaf %d: frequency %g vs marginal %g (5σ = %g)" l freq
            p (5. *. sigma))
      counts
  done

let test_enumerate_merged () =
  (* Two xor branches yielding the same (empty) world merge. *)
  let t = Tree.xor [ (0.3, Tree.and_ []); (0.2, Tree.and_ []) ] in
  let merged = Worlds.enumerate_merged t in
  Alcotest.(check int) "one merged world" 1 (List.length merged);
  (match merged with
  | [ ((ids, _), p) ] ->
      Alcotest.(check (list int)) "empty world" [] ids;
      check_float "merged probability" 1.0 p
  | _ -> Alcotest.fail "unexpected");
  check_float "world_probability" 1.0 (Worlds.world_probability t [])

let test_expectation_and_monte_carlo () =
  let g = rng () in
  let t = Consensus_workload.Gen.random_tree g 7 in
  let f w = float_of_int (List.length w) in
  let exact = Worlds.expectation t ~f in
  let mc = Worlds.monte_carlo g ~samples:30_000 (arena_of t) ~f in
  Alcotest.(check bool) "MC close to exact" true (abs_float (exact -. mc) < 0.1);
  check_floatl "matches genfunc expectation" exact
    (Poly1.expectation (Genfunc.size_distribution (arena_of t)))

(* ---------- Rank distributions ---------- *)

let rank_of_key w (alts : (int * Db.alt) list) key =
  (* Rank of [key] in the enumerated world [w] of (index, alt) leaves. *)
  let present = List.filter (fun (i, _) -> List.mem_assoc i alts |> ignore; true) w in
  ignore present;
  match List.find_opt (fun (_, (a : Db.alt)) -> a.Db.key = key) w with
  | None -> None
  | Some (_, a) ->
      let higher =
        List.length (List.filter (fun (_, (b : Db.alt)) -> b.Db.value > a.Db.value) w)
      in
      Some (higher + 1)

let test_rank_dist_vs_enumeration () =
  let g = rng () in
  for iter = 1 to 15 do
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 6)
      else Consensus_workload.Gen.random_keyed_tree g (3 + Prng.int g 6)
    in
    let it = Tree.indexed (Db.tree db) in
    let worlds = Worlds.enumerate it in
    let k = min 4 (Db.num_alts db) in
    Array.iter
      (fun key ->
        let dist = Marginals.rank_dist db key ~k in
        for j = 1 to k do
          let direct =
            List.fold_left
              (fun acc (p, w) ->
                match rank_of_key w [] key with
                | Some r when r = j -> acc +. p
                | _ -> acc)
              0. worlds
          in
          check_floatl
            (Printf.sprintf "Pr(r(%d)=%d)" key j)
            direct
            dist.(j - 1)
        done;
        let leq = Marginals.rank_leq db key ~k in
        let direct_leq =
          List.fold_left
            (fun acc (p, w) ->
              match rank_of_key w [] key with
              | Some r when r <= k -> acc +. p
              | _ -> acc)
            0. worlds
        in
        check_floatl "Pr(r<=k)" direct_leq leq)
      (Db.keys db)
  done

let test_rank_table_fast_matches_slow () =
  let g = rng () in
  for iter = 1 to 15 do
    (* forced blocks (mass 1) exercise the ill-conditioned-division
       fallback; multi-alternative blocks exercise the divide-out path *)
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.independent_db g (3 + Prng.int g 10)
      else Consensus_workload.Gen.bid_db ~max_alts:3 ~forced_fraction:0.5 g (2 + Prng.int g 6)
    in
    let k = 1 + Prng.int g 4 in
    let fast = Marginals.rank_table db ~k in
    List.iter
      (fun (key, dist) ->
        let direct = Marginals.rank_dist db key ~k in
        Array.iteri
          (fun j p ->
            check_floatl (Printf.sprintf "fast Pr(r(%d)=%d)" key (j + 1)) direct.(j) p)
          dist)
      fast
  done;
  (* x-tuples: BID-shaped blocks over DISTINCT keys; block-mates are
     mutually exclusive across keys (the bug class E7 caught: per-key mass
     tracking breaks here) *)
  for _ = 1 to 10 do
    let db = Consensus_workload.Gen.xtuple_db g (2 + Prng.int g 3) in
    let k = 1 + Prng.int g 3 in
    let fast = Marginals.rank_table db ~k in
    List.iter
      (fun (key, dist) ->
        let direct = Marginals.rank_dist db key ~k in
        Array.iteri
          (fun j p ->
            check_floatl
              (Printf.sprintf "x-tuple Pr(r(%d)=%d)" key (j + 1))
              direct.(j) p)
          dist)
      fast
  done;
  (* the sweep rejects correlated trees and empty tables, naming itself *)
  let db = Consensus_workload.Gen.random_tree_db g 6 in
  if not (Db.is_bid db || Db.is_independent db) then
    Alcotest.check_raises "correlated tree rejected"
      (Invalid_argument
         "Marginals.rank_table_dense: requires a BID-shaped database")
      (fun () -> ignore (Marginals.rank_table_dense db ~k:2));
  Alcotest.check_raises "k = 0 rejected"
    (Invalid_argument "Marginals.rank_table_dense: k must be positive")
    (fun () -> ignore (Marginals.rank_table_dense (fig1_i ()) ~k:0))

let test_beats_vs_enumeration () =
  let g = rng () in
  for iter = 1 to 10 do
    let db =
      if iter mod 2 = 0 then Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 6)
      else Consensus_workload.Gen.random_keyed_tree g (4 + Prng.int g 5)
    in
    let it = Tree.indexed (Db.tree db) in
    let worlds = Worlds.enumerate it in
    let keys = Db.keys db in
    Array.iter
      (fun k1 ->
        Array.iter
          (fun k2 ->
            if k1 <> k2 then begin
              let b = Marginals.beats db k1 k2 in
              let direct =
                List.fold_left
                  (fun acc (p, w) ->
                    match (rank_of_key w [] k1, rank_of_key w [] k2) with
                    | Some r1, Some r2 when r1 < r2 -> acc +. p
                    | Some _, None -> acc +. p
                    | _ -> acc)
                  0. worlds
              in
              check_floatl "beats" direct b
            end)
          keys)
      keys
  done

let test_expected_rank_vs_enumeration () =
  let g = rng () in
  for _ = 1 to 10 do
    let db = Consensus_workload.Gen.random_tree_db g (3 + Prng.int g 6) in
    let it = Tree.indexed (Db.tree db) in
    let worlds = Worlds.enumerate it in
    Array.iter
      (fun key ->
        let er = Marginals.expected_rank db key in
        let direct =
          List.fold_left
            (fun acc (p, w) ->
              match rank_of_key w [] key with
              | Some r -> acc +. (p *. float_of_int (r - 1))
              | None -> acc +. (p *. float_of_int (List.length w)))
            0. worlds
        in
        check_floatl "expected rank" direct er)
      (Db.keys db)
  done

let test_expected_value () =
  let db = fig1_i () in
  (* key 1: 0.1*8 + 0.5*2 = 1.8 *)
  check_float "expected value" 1.8 (Marginals.expected_value db 1)

let test_full_rank_dist () =
  let g = rng () in
  let db = Consensus_workload.Gen.random_tree_db g 6 in
  (* Full distribution sums to the leaf marginal. *)
  for l = 0 to Db.num_alts db - 1 do
    let d = Marginals.full_rank_dist_alt db l in
    check_floatl "sums to marginal" (Db.marginal db l) (Array.fold_left ( +. ) 0. d)
  done

(* The general path's table: per-alternative generating functions summed
   per key, in [Db.keys] order. *)
let full_table_by_alts db =
  Array.map
    (fun key ->
      let acc = Array.make (Db.num_alts db) 0. in
      List.iter
        (fun l ->
          Array.iteri (fun m p -> acc.(m) <- acc.(m) +. p)
            (Marginals.full_rank_dist_alt db l))
        (Db.alts_of_key db key);
      acc)
    (Db.keys db)

let check_full_table name db =
  let expected = full_table_by_alts db in
  let got = Marginals.full_rank_table db in
  Alcotest.(check int) (name ^ ": rows") (Array.length expected) (Array.length got);
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun m p ->
          check_float (Printf.sprintf "%s: Pr(r(key row %d) = %d)" name r (m + 1)) p
            got.(r).(m))
        row)
    expected

(* The largest second probability [p2] with [p1 + p2] inside the xor mass
   bound 1 + 1e-9 that [Tree.xor] accepts. *)
let at_mass_bound p1 =
  let bound = 1. +. 1e-9 in
  let rec down p2 = if p1 +. p2 > bound then down (Float.pred p2) else p2 in
  down (bound -. p1)

(* Random BID-shaped blocks mixing the numeric edges in: alternatives
   within 1e-12 of probability 0 and 1, and one block whose mass sits at
   the 1 + 1e-9 bound.  [xtuple] gives every alternative its own key. *)
let edge_blocks g ~xtuple n =
  let scores = Consensus_workload.Gen.distinct_scores g (3 * n) in
  let next = ref (-1) in
  let alt block =
    incr next;
    { Db.key = (if xtuple then !next else block); value = scores.(!next) }
  in
  List.init n (fun b ->
      let probs =
        if b = 0 then [ 0.6; at_mass_bound 0.6 ]
        else
          match Prng.int g 5 with
          | 0 -> [ 1e-12; 1. -. 2e-12 ]
          | 1 -> [ 1. -. 1e-12 ]
          | 2 -> [ 1e-12 ]
          | _ ->
              let c = 1 + Prng.int g 3 in
              let mass = if Prng.int g 3 = 0 then 1. else Prng.float g 1. in
              List.init c (fun _ -> mass /. float_of_int c)
      in
      List.map (fun p -> (p, alt b)) probs)

let test_full_rank_table_dense_matches_general () =
  let g = rng () in
  let module Gen = Consensus_workload.Gen in
  (* 100+ keys: a sweep that divides out block factors carelessly loses all
     precision well before that size *)
  List.iter
    (fun n ->
      check_full_table (Printf.sprintf "bid %d" n)
        (Gen.bid_db ~max_alts:4 ~forced_fraction:0.5 g n);
      check_full_table (Printf.sprintf "x-tuple %d" n)
        (Gen.xtuple_db ~max_alts:4 ~forced_fraction:0.5 g n);
      check_full_table (Printf.sprintf "independent %d" n) (Gen.independent_db g n))
    [ 1; 6; 40; 120 ];
  List.iter
    (fun xtuple ->
      let db = Db.create (Tree.bid (edge_blocks g ~xtuple 60)) in
      Alcotest.(check bool) "edge db is BID-shaped" true (Db.is_bid db);
      check_full_table (if xtuple then "x-tuple edges" else "bid edges") db)
    [ false; true ];
  check_full_table "independent edges"
    (Db.independent
       (List.init 50 (fun i ->
            (i, float_of_int i, if i mod 2 = 0 then 1e-12 else 1. -. 1e-12))));
  (* the sweep against possible worlds where an over-full block's residual
     is 0 *)
  List.iter
    (fun xtuple ->
      let db = Db.create (Tree.bid (edge_blocks g ~xtuple 5)) in
      let name = if xtuple then "x-tuple edges" else "bid edges" in
      let worlds = Worlds.enumerate (Tree.indexed (Db.tree db)) in
      let got = Marginals.full_rank_table db in
      Array.iteri
        (fun r key ->
          Array.iteri
            (fun m p ->
              let direct =
                List.fold_left
                  (fun acc (q, w) ->
                    match rank_of_key w [] key with
                    | Some rank when rank = m + 1 -> acc +. q
                    | _ -> acc)
                  0. worlds
              in
              check_float
                (Printf.sprintf "%s: Pr(r(%d) = %d) vs enumeration" name key (m + 1))
                direct p)
            got.(r))
        (Db.keys db))
    [ false; true ];
  (* The enumeration above is within 1e-9 with or without the clamp.  Here
     an unclamped residual 1 - Σp = -1e-9 would show as a negative
     probability: block 0 is over-full and outranks everything, block 1 is
     full with a small second alternative (at k = 1 its factor is divided
     out by recomputing the other blocks' product), and block 2's lone
     tuple ranks last. *)
  let db =
    Db.create
      (Tree.bid
         [
           [ (0.6, { Db.key = 0; value = 10. }); (at_mass_bound 0.6, { key = 0; value = 9. }) ];
           [ (0.9, { key = 1; value = 8. }); (0.1, { key = 1; value = 7. }) ];
           [ (0.5, { key = 2; value = 1. }) ];
         ])
  in
  let non_negative name ps =
    Array.iteri
      (fun i p -> if p < 0. then Alcotest.failf "%s: entry %d is %g" name i p)
      ps
  in
  non_negative "size distribution (Genfunc)"
    (Array.init 4 (Poly1.coeff (Marginals.size_distribution db)));
  non_negative "rank walk" (Marginals.rank_dist db 2 ~k:3);
  List.iter
    (fun (key, row) -> non_negative (Printf.sprintf "rank_table k=1, key %d" key) row)
    (Marginals.rank_table db ~k:1);
  Array.iter (non_negative "full_rank_table") (Marginals.full_rank_table db)

(* Pair joints against enumeration, in both orders and at k = 1, 2, 3, on
   general trees, BID and x-tuple databases, and at the numeric edges:
   probabilities within 1e-12 of 0 and 1 and an xor block at the
   1 + 1e-9 mass bound. *)
let test_topk_pair_vs_enumeration () =
  let g = rng () in
  let module Gen = Consensus_workload.Gen in
  let check_db name db =
    let worlds = Worlds.enumerate (Tree.indexed (Db.tree db)) in
    let keys = Db.keys db in
    List.iter
      (fun k ->
        Array.iter
          (fun k1 ->
            Array.iter
              (fun k2 ->
                if k1 <> k2 then begin
                  let direct pred =
                    List.fold_left
                      (fun acc (p, w) ->
                        match (rank_of_key w [] k1, rank_of_key w [] k2) with
                        | Some r1, Some r2 when pred r1 r2 -> acc +. p
                        | _ -> acc)
                      0. worlds
                  in
                  let joint = Marginals.topk_pair_prob db k1 k2 ~k in
                  let above = Marginals.topk_pair_prob_ordered db k1 k2 ~k in
                  let below = Marginals.topk_pair_prob_ordered db k2 k1 ~k in
                  let label = Printf.sprintf "%s k=%d (%d, %d)" name k k1 k2 in
                  check_float (label ^ ": joint top-k")
                    (direct (fun r1 r2 -> r1 <= k && r2 <= k))
                    joint;
                  check_float (label ^ ": ordered")
                    (direct (fun r1 r2 -> r1 < r2 && r2 <= k))
                    above;
                  check_float (label ^ ": orders sum to the joint") joint
                    (above +. below)
                end)
              keys)
          keys)
      [ 1; 2; 3 ]
  in
  for _ = 1 to 5 do
    check_db "tree" (Gen.random_tree_db g (4 + Prng.int g 5));
    check_db "keyed tree" (Gen.random_keyed_tree g (4 + Prng.int g 5));
    check_db "bid" (Gen.bid_db ~max_alts:3 ~forced_fraction:0.3 g (2 + Prng.int g 4));
    check_db "x-tuple" (Gen.xtuple_db ~max_alts:3 g (2 + Prng.int g 3))
  done;
  List.iter
    (fun xtuple ->
      check_db
        (if xtuple then "x-tuple edges" else "bid edges")
        (Db.create (Tree.bid (edge_blocks g ~xtuple 5))))
    [ false; true ];
  (* a correlated (non-BID) tree with the same edges *)
  let scores = Gen.distinct_scores g 8 in
  let leaf i = Tree.leaf { Db.key = i; value = scores.(i) } in
  check_db "tree edges"
    (Db.create
       (Tree.and_
          [
            Tree.xor [ (0.6, Tree.and_ [ leaf 0; leaf 1 ]); (at_mass_bound 0.6, leaf 2) ];
            Tree.xor
              [
                (1e-12, leaf 3);
                (1. -. 2e-12, Tree.and_ [ leaf 4; Tree.xor [ (1. -. 1e-12, leaf 5) ] ]);
              ];
            Tree.xor [ (1e-12, Tree.and_ [ leaf 6; leaf 7 ]) ];
          ]))

(* The rank kernel's size-conditioned mode, [~above:neg_infinity]:
   Pr(key present ∧ |pw| = j) against enumeration at 1e-12, on general
   trees, BID and x-tuple databases.  At the numeric edges — probabilities
   within 1e-12 of 0 and 1, and an xor block at the 1 + 1e-9 mass bound —
   enumeration drops world residuals of 1e-12 and below, so BID shapes are
   held at 1e-12 to the closed form
     Σ_{l ∈ key} p_l·[x^{j−1}] Π_{B ≠ block l} (max 0 (1 − m_B) + m_B·x),
   and to enumeration at the 1e-9 gap the other kernels accept there. *)
let test_size_conditioned_rank_vs_enumeration () =
  let g = rng () in
  let module Gen = Consensus_workload.Gen in
  let check_blocks name db =
    let blocks = Option.get (Db.xor_blocks db) in
    let marg = Db.marginal_array db in
    let nb = 1 + Array.fold_left max 0 blocks in
    let mass = Array.make nb 0. in
    Array.iteri (fun l b -> mass.(b) <- mass.(b) +. marg.(l)) blocks;
    let n = Db.num_alts db in
    Array.iter
      (fun key ->
        let expected = Array.make n 0. in
        List.iter
          (fun l ->
            let others = ref [| 1. |] in
            for b = 0 to nb - 1 do
              if b <> blocks.(l) then begin
                let p = !others in
                let q = Array.make (Array.length p + 1) 0. in
                Array.iteri
                  (fun d c ->
                    q.(d) <- q.(d) +. (Float.max 0. (1. -. mass.(b)) *. c);
                    q.(d + 1) <- q.(d + 1) +. (mass.(b) *. c))
                  p;
                others := q
              end
            done;
            Array.iteri
              (fun d c -> if d < n then expected.(d) <- expected.(d) +. (marg.(l) *. c))
              !others)
          (Db.alts_of_key db key);
        let got = Marginals.rank_dist ~above:neg_infinity db key ~k:n in
        Array.iteri
          (fun d p ->
            Alcotest.(check (float 1e-12))
              (Printf.sprintf "%s: Pr(%d present, |pw| = %d) closed form" name key (d + 1))
              p got.(d))
          expected)
      (Db.keys db)
  in
  let check_db ?(eps = 1e-12) name db =
    let worlds = Worlds.enumerate (Tree.indexed (Db.tree db)) in
    let n = Db.num_alts db in
    List.iter
      (fun k ->
        Array.iter
          (fun key ->
            let got = Marginals.rank_dist ~above:neg_infinity db key ~k in
            for j = 1 to k do
              let direct =
                List.fold_left
                  (fun acc (p, w) ->
                    if List.length w = j && rank_of_key w [] key <> None then acc +. p
                    else acc)
                  0. worlds
              in
              Alcotest.(check (float eps))
                (Printf.sprintf "%s k=%d: Pr(%d present, |pw| = %d)" name k key j)
                direct
                got.(j - 1)
            done)
          (Db.keys db))
      (List.sort_uniq compare [ 1; 2; 3; n ])
  in
  for _ = 1 to 5 do
    check_db "tree" (Gen.random_tree_db g (4 + Prng.int g 5));
    check_db "keyed tree" (Gen.random_keyed_tree g (4 + Prng.int g 5));
    check_db "bid" (Gen.bid_db ~max_alts:3 ~forced_fraction:0.3 g (2 + Prng.int g 4));
    check_db "x-tuple" (Gen.xtuple_db ~max_alts:3 g (2 + Prng.int g 3))
  done;
  let independent_edges =
    Db.independent
      (List.init 8 (fun i ->
           (i, float_of_int i, if i mod 2 = 0 then 1e-12 else 1. -. 1e-12)))
  in
  check_blocks "independent edges" independent_edges;
  check_db ~eps:1e-9 "independent edges" independent_edges;
  List.iter
    (fun xtuple ->
      let name = if xtuple then "x-tuple edges" else "bid edges" in
      let db = Db.create (Tree.bid (edge_blocks g ~xtuple 5)) in
      check_blocks name db;
      check_db ~eps:1e-9 name db)
    [ false; true ];
  let scores = Gen.distinct_scores g 8 in
  let leaf i = Tree.leaf { Db.key = i; value = scores.(i) } in
  check_db ~eps:1e-9 "tree edges"
    (Db.create
       (Tree.and_
          [
            Tree.xor [ (0.6, Tree.and_ [ leaf 0; leaf 1 ]); (at_mass_bound 0.6, leaf 2) ];
            Tree.xor
              [
                (1e-12, leaf 3);
                (1. -. 2e-12, Tree.and_ [ leaf 4; Tree.xor [ (1. -. 1e-12, leaf 5) ] ]);
              ];
            Tree.xor [ (1e-12, Tree.and_ [ leaf 6; leaf 7 ]) ];
          ]))

(* ---------- Genfunc engines cross-validation ---------- *)

let test_bipoly_engine_vs_enumeration () =
  (* Each case pairs a substitution with what its x^d coefficients count,
     from a world's (leaf-0 present, #odd leaves, #even leaves): y on leaf 0
     and x on the odd leaves (Example 3, linear in y), and 1 + y on the odd
     leaves with x on the even ones (the dual numbers of Jaccard's
     Lemma 1), whose y^1 part weighs each world by its odd count. *)
  let g = rng () in
  let one_eps = Bipoly.make ~a:Poly1.one ~b:Poly1.one in
  let cases =
    [ ((fun i -> if i = 0 then Bipoly.y else if i mod 2 = 1 then Bipoly.x else Bipoly.one),
       fun (leaf0, odd, _) -> if leaf0 then (odd, 0., 1.) else (odd, 1., 0.));
      ((fun i -> if i mod 2 = 1 then one_eps else Bipoly.x),
       fun (_, odd, even) -> (even, 1., float_of_int odd)) ]
  in
  for _ = 1 to 10 do
    let t = Consensus_workload.Gen.random_tree g 7 in
    let a = arena_of t in
    let n = Arena.num_leaves a in
    let worlds = Worlds.enumerate (Tree.indexed t) in
    List.iter
      (fun (sb, weigh) ->
        let bip = Genfunc.bipoly sb a in
        let y0 = Array.make (n + 1) 0. and y1 = Array.make (n + 1) 0. in
        List.iter
          (fun (p, w) ->
            let count f = List.length (List.filter (fun (i, _) -> f i) w) in
            let d, w0, w1 =
              weigh
                ( List.exists (fun (i, _) -> i = 0) w,
                  count (fun i -> i mod 2 = 1),
                  count (fun i -> i mod 2 = 0) )
            in
            y0.(d) <- y0.(d) +. (p *. w0);
            y1.(d) <- y1.(d) +. (p *. w1))
          worlds;
        for d = 0 to n do
          check_floatl "y^0 part" y0.(d) (Poly1.coeff bip.Bipoly.a d);
          check_floatl "y^1 part" y1.(d) (Poly1.coeff bip.Bipoly.b d)
        done)
      cases
  done

(* The sweep against the width-k walk ([rank_table_slow]) and the
   untruncated generating function ([full_rank_dist_alt]), at 1e-9, across
   BID, x-tuple and independent shapes, forced fractions 0, 0.2 and 1, and
   k in {1, 2, 16, n}.  Certain blocks shift the sweep's product and stop
   it once more than k of them are complete, so the cases also cover the
   mass edges, a block that saturates before its own last row, and a
   database whose k + 1 best tuples are certain. *)
let test_rank_sweep_shift_and_stop () =
  let g = rng () in
  let module Gen = Consensus_workload.Gen in
  (* [relative] keys are held to 1e-6 of their marginal instead: their
     mass is far below the absolute tolerance *)
  let check ?(relative = []) name db =
    let n = Db.num_alts db in
    let full_row key =
      let acc = Array.make n 0. in
      List.iter
        (fun l ->
          Array.iteri (fun m p -> acc.(m) <- acc.(m) +. p) (Marginals.full_rank_dist_alt db l))
        (Db.alts_of_key db key);
      acc
    in
    let full = Array.map full_row (Db.keys db) in
    List.iter
      (fun k ->
        let keys, dense = Marginals.rank_table_dense db ~k in
        List.iteri
          (fun r (key, slow) ->
            Alcotest.(check int) (name ^ ": row key") key keys.(r);
            for j = 0 to k - 1 do
              let got = dense.((r * k) + j) in
              let reference = if j < n then full.(r).(j) else 0. in
              let tol =
                if List.mem key relative then 1e-6 *. Db.key_marginal db key else 1e-9
              in
              if Float.abs (got -. slow.(j)) > tol || Float.abs (got -. reference) > tol
              then
                Alcotest.failf "%s, k = %d: Pr(r(%d) = %d) is %g; walk %g, full %g"
                  name k key (j + 1) got slow.(j) reference
            done)
          (Marginals.rank_table_slow db ~k))
      (List.sort_uniq compare [ 1; 2; 16; n ])
  in
  List.iter
    (fun forced_fraction ->
      List.iter
        (fun n ->
          let tag shape = Printf.sprintf "%s %d, forced %g" shape n forced_fraction in
          check (tag "bid") (Gen.bid_db ~forced_fraction g n);
          check (tag "x-tuple") (Gen.xtuple_db ~forced_fraction g n))
        [ 1; 9; 45 ])
    [ 0.; 0.2; 1. ];
  List.iter
    (fun n -> check (Printf.sprintf "independent %d" n) (Gen.independent_db g n))
    [ 1; 9; 60 ];
  List.iter
    (fun xtuple ->
      check
        (if xtuple then "x-tuple edges" else "bid edges")
        (Db.create (Tree.bid (edge_blocks g ~xtuple 40))))
    [ false; true ];
  check "independent edges"
    (Db.independent
       (List.init 40 (fun i ->
            (i, float_of_int i, if i mod 2 = 0 then 1e-12 else 1. -. 1e-12))));
  (* Block 0 is full after its first two rows: its third alternative is
     below an ulp of the swept mass 1, so it reads a saturated block.  Block
     1 is over-full past its second row, at the 1 + 1e-9 bound.  As
     x-tuples, those two late alternatives are keys 2 and 5 of their own;
     at k = 1, key 2 is read before the second block saturates and stops
     the sweep. *)
  let blocks =
    [
      [ (0.75, 20.); (0.25, 12.); (1e-17, 11.5) ];
      [ (0.5, 18.); (0.5 +. 5e-10, 10.); (4e-10, 5.) ];
      [ (0.3, 15.); (0.6, 1.) ];
      [ (0.9, 14.) ];
      [ (0.4, 11.); (0.2, 4.) ];
      [ (1., 8.) ];
      [ (0.5, 7.) ];
    ]
  in
  let bid blocks = Db.bid (List.mapi (fun key alts -> (key, alts)) blocks) in
  check "saturated before its last row" (bid blocks);
  check "sparse keys" (Db.bid (List.mapi (fun i alts -> ((10 * i) + 3, alts)) blocks));
  let next = ref (-1) in
  check ~relative:[ 2; 5 ] "x-tuple saturated before its last row"
    (Db.create
       (Tree.bid
          (List.map
             (List.map (fun (p, value) ->
                  incr next;
                  (p, { Db.key = !next; value })))
             blocks)));
  (* the k + 1 best tuples certain: the sweep stops after them, and every
     later key's row is 0 *)
  List.iter
    (fun k ->
      let certain = List.init (k + 1) (fun i -> [ (1., 1000. -. float_of_int i) ]) in
      let rest =
        List.init 12 (fun i ->
            [ (0.3, 100. -. float_of_int i); (0.2, 50. -. float_of_int i) ])
      in
      let db = bid (certain @ rest) in
      check (Printf.sprintf "%d certain tuples on top" (k + 1)) db;
      let _, dense = Marginals.rank_table_dense db ~k in
      for r = k + 1 to Db.num_keys db - 1 do
        for j = 0 to k - 1 do
          if dense.((r * k) + j) <> 0. then
            Alcotest.failf "k = %d: row %d after the stop is %g at rank %d" k r
              dense.((r * k) + j) (j + 1)
        done
      done)
    [ 1; 2; 5 ]

let suite =
  [
    Alcotest.test_case "figure 1(i) size distribution" `Quick test_figure1_size_distribution;
    Alcotest.test_case "figure 1(i) block genfuncs" `Quick test_figure1_block_genfuncs;
    Alcotest.test_case "figure 1(iii) rank probabilities" `Quick test_figure1_rank;
    Alcotest.test_case "figure 1 marginals" `Quick test_marginals_figure1;
    Alcotest.test_case "figure 1(iii) enumeration" `Quick test_enumerate_figure1_iii;
    Alcotest.test_case "tree validation" `Quick test_tree_validation;
    Alcotest.test_case "tree shape accessors" `Quick test_tree_shape;
    Alcotest.test_case "scores distinct" `Quick test_scores_distinct;
    Alcotest.test_case "key constraint" `Quick test_tree_key_constraint;
    Alcotest.test_case "count worlds" `Quick test_count_worlds;
    Alcotest.test_case "filter leaves" `Quick test_filter_leaves;
    Alcotest.test_case "world_is_possible" `Quick test_world_is_possible;
    Alcotest.test_case "enumeration total probability" `Quick test_enumeration_total_probability;
    Alcotest.test_case "size distribution vs enumeration" `Quick test_size_distribution_vs_enumeration;
    Alcotest.test_case "subset size distribution" `Quick test_subset_size_distribution;
    Alcotest.test_case "marginals vs enumeration" `Quick test_marginals_vs_enumeration;
    Alcotest.test_case "pair marginals vs enumeration" `Quick test_pair_marginal_vs_enumeration;
    Alcotest.test_case "sampling matches marginals" `Slow test_sampling_matches_marginals;
    Alcotest.test_case "enumerate merged" `Quick test_enumerate_merged;
    Alcotest.test_case "expectation and monte carlo" `Slow test_expectation_and_monte_carlo;
    Alcotest.test_case "rank dist vs enumeration" `Quick test_rank_dist_vs_enumeration;
    Alcotest.test_case "rank table fast = slow" `Quick test_rank_table_fast_matches_slow;
    Alcotest.test_case "top-k pair vs enumeration" `Quick test_topk_pair_vs_enumeration;
    Alcotest.test_case "beats vs enumeration" `Quick test_beats_vs_enumeration;
    Alcotest.test_case "expected rank vs enumeration" `Quick test_expected_rank_vs_enumeration;
    Alcotest.test_case "expected value" `Quick test_expected_value;
    Alcotest.test_case "full rank dist" `Quick test_full_rank_dist;
    Alcotest.test_case "full rank table dense = general" `Quick
      test_full_rank_table_dense_matches_general;
    Alcotest.test_case "bipoly engine vs enumeration" `Quick
      test_bipoly_engine_vs_enumeration;
    Alcotest.test_case "rank sweep shifts and stops" `Quick test_rank_sweep_shift_and_stop;
    Alcotest.test_case "size-conditioned rank vs enumeration" `Quick
      test_size_conditioned_rank_vs_enumeration;
  ]
