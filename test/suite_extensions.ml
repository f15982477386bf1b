(* Tests for the extension modules: tree transforms, K^(p) metrics, pruned
   PT-k evaluation, and safe plans. *)

open Consensus_util
open Consensus_anxor
open Consensus
open Consensus_pdb
module Gen = Consensus_workload.Gen
module Topk_list = Consensus_ranking.Topk_list
module F = Consensus_ranking.Functions

let check_float = Alcotest.(check (float 1e-6))
let rng () = Prng.create ~seed:60606 ()

(* Presence probability of each leaf of an int-payload tree, paired with
   its payload in depth-first order. *)
let leaf_marginals t =
  List.combine (Tree.leaves t)
    (Array.to_list
       (Arena.marginals (Arena.of_tree ~key:Fun.id ~value:float_of_int t)))

(* ---------- Transform ---------- *)

let test_of_worlds_figure1 () =
  (* Figure 1(ii) distribution re-encoded and checked against the direct
     construction. *)
  let alt k v = { Db.key = k; value = v } in
  let worlds =
    [
      (0.3, [ alt 3 6.; alt 2 5.; alt 1 1. ]);
      (0.3, [ alt 3 9.; alt 1 7.; alt 4 0. ]);
      (0.4, [ alt 2 8.; alt 4 4.; alt 5 3. ]);
    ]
  in
  let t = Transform.of_worlds worlds in
  let db = Db.create t in
  check_float "t3 marginal" 0.6 (Db.key_marginal db 3);
  let sizes = Marginals.size_distribution db in
  check_float "always 3 tuples" 1. (Consensus_poly.Poly1.coeff sizes 3)

let test_of_worlds_residual () =
  let t = Transform.of_worlds [ (0.4, [ 'a' ]) ] in
  let worlds = Worlds.enumerate_merged t in
  Alcotest.(check int) "two worlds (incl. empty)" 2 (List.length worlds);
  check_float "empty world" 0.6 (Worlds.world_probability t [])

let test_simplify_preserves_distribution () =
  let g = rng () in
  for _ = 1 to 20 do
    let t = Gen.random_tree g (2 + Prng.int g 8) in
    let s = Transform.simplify t in
    Alcotest.(check bool) "equivalent" true (Transform.is_equivalent t s);
    (* simplification never grows the tree *)
    Alcotest.(check bool) "no larger" true (Tree.num_nodes s <= Tree.num_nodes t)
  done

let test_simplify_flattens () =
  let t =
    Tree.and_ [ Tree.and_ [ Tree.leaf 1 ]; Tree.and_ [ Tree.leaf 2; Tree.leaf 3 ] ]
  in
  match Transform.simplify t with
  | Tree.And [ Tree.Leaf 1; Tree.Leaf 2; Tree.Leaf 3 ] -> ()
  | s ->
      Alcotest.failf "not flattened: %s"
        (Format.asprintf "%a" (Tree.pp Format.pp_print_int) s)

let test_simplify_collapses_nested_xor () =
  let t = Tree.xor [ (0.5, Tree.xor [ (0.5, Tree.leaf 'a') ]) ] in
  (match Transform.simplify t with
  | Tree.Xor [ (p, Tree.Leaf 'a') ] -> check_float "multiplied" 0.25 p
  | _ -> Alcotest.fail "nested xor not distributed");
  let one = Tree.xor [ (1.0, Tree.leaf 'b') ] in
  match Transform.simplify one with
  | Tree.Leaf 'b' -> ()
  | _ -> Alcotest.fail "probability-1 xor not collapsed"

let test_push_bernoulli () =
  let t = Transform.push_bernoulli 0.3 (Tree.certain [ 'x'; 'y' ]) in
  check_float "world prob" 0.3 (Worlds.world_probability t [ 0; 1 ]);
  check_float "empty prob" 0.7 (Worlds.world_probability t [])

let test_stats () =
  let t = Tree.bid [ [ (0.5, 'a'); (0.5, 'b') ]; [ (1.0, 'c') ] ] in
  Alcotest.(check (triple int int int)) "counts" (3, 1, 2) (Transform.stats t)

let test_conditioning_vs_pair_marginals () =
  let g = rng () in
  for _ = 1 to 15 do
    let db = Gen.random_tree_db g (3 + Prng.int g 7) in
    let n = Db.num_alts db in
    let target = Prng.int g n in
    let it = fst (Tree.index (Db.tree db)) in
    (* present *)
    (match Transform.condition_present (fun i -> i = target) it with
    | None -> Alcotest.fail "leaf not found"
    | Some (p, cond) ->
        check_float "conditioning probability" (Db.marginal db target) p;
        if p > 1e-9 then begin
          let cond_marginals = leaf_marginals cond in
          for i = 0 to n - 1 do
            let joint = Db.pair_marginal db i target in
            let expected = joint /. p in
            let got =
              Option.value (List.assoc_opt i cond_marginals) ~default:0.
            in
            check_float
              (Printf.sprintf "P(%d | %d present)" i target)
              expected got
          done
        end);
    (* absent *)
    match Transform.condition_absent (fun i -> i = target) it with
    | None -> Alcotest.fail "leaf not found"
    | Some (q, cond) ->
        check_float "absence probability" (1. -. Db.marginal db target) q;
        if q > 1e-9 then begin
          let cond_marginals = leaf_marginals cond in
          for i = 0 to n - 1 do
            let joint = Db.marginal db i -. Db.pair_marginal db i target in
            let expected = joint /. q in
            let got =
              List.filter (fun (j, _) -> j = i) cond_marginals
              |> List.fold_left (fun acc (_, m) -> acc +. m) 0.
            in
            check_float
              (Printf.sprintf "P(%d | %d absent)" i target)
              expected got
          done
        end
  done

let test_merge_independent () =
  let t =
    Transform.merge_independent
      [ Tree.independent [ (0.5, 1) ]; Tree.independent [ (0.5, 2) ] ]
  in
  let m = leaf_marginals t in
  check_float "p(1)" 0.5 (List.assoc 1 m);
  check_float "p(2)" 0.5 (List.assoc 2 m);
  Alcotest.(check int) "flattened" 2 (Tree.num_leaves t)

let test_pretty_printers_smoke () =
  let db = Db.bid [ (1, [ (0.5, 3.); (0.3, 7.) ]) ] in
  let s = Format.asprintf "%a" Db.pp db in
  Alcotest.(check bool) "db pp nonempty" true (String.length s > 0);
  let tree_s =
    Format.asprintf "%a" (Tree.pp Format.pp_print_int) (Tree.independent [ (0.5, 9) ])
  in
  Alcotest.(check bool) "tree pp mentions xor" true
    (String.length tree_s > 0);
  let l = Consensus_pdb.Lineage.(And [ Var 1; Not (Or [ Var 2; True ]) ]) in
  Alcotest.(check bool) "lineage pp nonempty" true
    (String.length (Consensus_pdb.Lineage.to_string l) > 0)

let test_conditioning_rejects_ambiguity () =
  let t = Tree.and_ [ Tree.leaf 'a'; Tree.leaf 'a' ] in
  try
    ignore (Transform.condition_present (fun c -> c = 'a') t);
    Alcotest.fail "ambiguous predicate accepted"
  with Invalid_argument _ -> ()

(* ---------- K^(p) metric ---------- *)

let test_kendall_p_specializes () =
  let g = rng () in
  for _ = 1 to 100 do
    let mk () =
      Array.of_list (Prng.sample_distinct g (1 + Prng.int g 3) 6)
    in
    let a = mk () and b = mk () in
    check_float "K^0 = K_min"
      (Topk_list.kendall ~k:3 a b)
      (Topk_list.kendall_p ~p:0. ~k:3 a b);
    (* monotone in p *)
    Alcotest.(check bool) "monotone" true
      (Topk_list.kendall_p ~p:0.5 ~k:3 a b <= Topk_list.kendall_p ~p:1. ~k:3 a b +. 1e-9)
  done

let test_kendall_p_disjoint () =
  (* disjoint k=2 lists: 4 forced pairs + 2 undetermined pairs *)
  check_float "p=1/2" 5. (Topk_list.kendall_p ~p:0.5 ~k:2 [| 1; 2 |] [| 3; 4 |]);
  check_float "p=1" 6. (Topk_list.kendall_p ~p:1. ~k:2 [| 1; 2 |] [| 3; 4 |])

let test_expected_kendall_p_vs_enum () =
  let g = rng () in
  for _ = 1 to 8 do
    let db = Gen.random_tree_db g (3 + Prng.int g 4) in
    let ctx = Topk_consensus.make_ctx db ~k:2 in
    let keys = Db.keys (Topk_consensus.db ctx) in
    let tau = [| keys.(0); keys.(1) |] in
    List.iter
      (fun p ->
        let direct =
          Worlds.enumerate (Db.tree db)
          |> List.fold_left
               (fun acc (q, w) ->
                 acc
                 +. (q *. Topk_list.kendall_p ~p ~k:2 tau (Topk_list.of_world ~k:2 w)))
               0.
        in
        check_float
          (Printf.sprintf "E[K^(%g)]" p)
          direct
          (Topk_consensus.expected_kendall_p ~p ctx tau))
      [ 0.; 0.25; 0.5; 1. ]
  done

(* ---------- pruned PT-k ---------- *)

let test_upper_bound_dominates () =
  let g = rng () in
  for iter = 1 to 12 do
    let db =
      if iter mod 2 = 0 then Gen.independent_db g 12 else Gen.bid_db g 8
    in
    let k = 3 in
    let bounds = F.rank_leq_upper_bound db ~k in
    List.iter
      (fun (key, ub) ->
        let exact = Marginals.rank_leq db key ~k in
        Alcotest.(check bool)
          (Printf.sprintf "bound %g >= exact %g (key %d)" ub exact key)
          true
          (ub >= exact -. 1e-9))
      bounds
  done

let test_pruned_matches_full () =
  let g = rng () in
  for iter = 1 to 12 do
    let db =
      if iter mod 2 = 0 then Gen.independent_db g 25 else Gen.bid_db g 15
    in
    let k = 4 in
    let full = F.global_topk db ~k in
    let pruned, evals = F.global_topk_pruned db ~k in
    (* answers may differ on ties; their total Pr(r<=k) must agree *)
    let mass answer =
      Array.fold_left (fun acc key -> acc +. Marginals.rank_leq db key ~k) 0. answer
    in
    check_float "same quality" (mass full) (mass pruned);
    Alcotest.(check bool) "evaluated at most all keys" true
      (evals <= Db.num_keys db)
  done

let test_pruning_saves_work () =
  (* On a sharply skewed instance pruning must skip most keys. *)
  let db =
    Db.independent
      (List.init 100 (fun i ->
           let p = if i < 5 then 0.95 else 0.02 in
           (i, 1000. -. float_of_int i, p)))
  in
  let _, evals = F.global_topk_pruned db ~k:3 in
  Alcotest.(check bool)
    (Printf.sprintf "pruned to %d of 100" evals)
    true (evals < 60)

(* ---------- sampled consensus ---------- *)

let test_sampled_consensus_converges () =
  let g = rng () in
  let db = Gen.bid_db g 30 in
  let k = 5 in
  let ctx = Topk_consensus.make_ctx db ~k in
  let exact_sd =
    Topk_consensus.expected_sym_diff ctx (Topk_consensus.mean_sym_diff ctx)
  in
  let sampled = Topk_consensus.sampled_mean_sym_diff g ~samples:5000 db ~k in
  Alcotest.(check bool) "sampled close to optimum" true
    (Topk_consensus.expected_sym_diff ctx sampled <= exact_sd +. 0.03);
  let exact_fr =
    Topk_consensus.expected_footrule ctx (Topk_consensus.mean_footrule ctx)
  in
  let sampled_fr = Topk_consensus.sampled_mean_footrule g ~samples:5000 db ~k in
  Alcotest.(check bool) "sampled footrule close" true
    (Topk_consensus.expected_footrule ctx sampled_fr
    <= exact_fr +. (0.05 *. exact_fr) +. 0.5)

let test_sampled_consensus_validates () =
  let g = rng () in
  let db = Gen.bid_db g 10 in
  let answer = Topk_consensus.sampled_mean_sym_diff g ~samples:100 db ~k:3 in
  Topk_list.validate ~k:3 answer;
  let answer_fr = Topk_consensus.sampled_mean_footrule g ~samples:100 db ~k:3 in
  Topk_list.validate ~k:3 answer_fr;
  try
    ignore (Topk_consensus.sampled_mean_sym_diff g ~samples:0 db ~k:3);
    Alcotest.fail "zero samples accepted"
  with Invalid_argument _ -> ()

(* Seeded sampled answers, pinned: the sampler draws one uniform per visited
   xor node in depth-first order, and any change to that sequence changes
   these answers. *)
let test_sampled_answers_golden () =
  let cluster =
    [
      [| 0; 1; 2; 1; 3; 3 |];
      [| 0; 4; 1; 2; 3; 1 |];
      [| 3; 0; 1; 1; 2; 1 |];
      [| 0; 1; 2; 0; 3; 2 |];
      [| 0; 1; 1; 2; 0; 3 |];
      [| 0; 1; 4; 2; 3; 3 |];
    ]
  in
  List.iteri
    (fun i expected ->
      let seed = i + 1 in
      let db = Gen.clustering_db (Prng.create ~seed:(1000 + seed) ()) 6 in
      let t = Cluster_consensus.make db in
      Alcotest.(check (array int))
        (Printf.sprintf "best_of_worlds seed %d" seed)
        expected
        (Cluster_consensus.best_of_worlds (Prng.create ~seed ()) ~samples:3 t))
    cluster;
  let topk =
    [
      [| 2; 5; 6 |];
      [| 5; 6; 7 |];
      [| 2; 0; 1 |];
      [| 0; 1; 3 |];
      [| 1; 6; 5 |];
      [| 6; 7; 0 |];
    ]
  in
  List.iteri
    (fun i expected ->
      let seed = i + 1 in
      let db = Gen.random_keyed_tree (Prng.create ~seed:(2000 + seed) ()) 9 in
      Alcotest.(check (array int))
        (Printf.sprintf "sampled_mean_sym_diff seed %d" seed)
        expected
        (Topk_consensus.sampled_mean_sym_diff (Prng.create ~seed ()) ~samples:5
           db ~k:3))
    topk;
  List.iteri
    (fun i expected ->
      let seed = i + 1 in
      let db = Gen.random_keyed_tree (Prng.create ~seed:(3000 + seed) ()) 9 in
      let keys = Db.keys db in
      let tau = [| keys.(0); keys.(1) |] in
      Alcotest.(check (float 0.))
        (Printf.sprintf "monte_carlo seed %d" seed)
        expected
        (Worlds.monte_carlo (Prng.create ~seed ()) ~samples:20 (Db.arena db)
           ~f:(fun ids ->
             Topk_consensus.eval_metric Topk_consensus.Sym_diff ~k:2 tau
               (Topk_list.of_world ~k:2 (List.map (Db.alt db) ids)))))
    [ 0.8625; 0.3625; 0.4375 ]

(* ---------- safe plans ---------- *)

let mk_instance reg =
  (* R(x), S(x, y), T(y): the classic hierarchical chain. *)
  let r =
    Relation.of_independent reg [ "a" ]
      [ ([| Value.Int 1 |], 0.5); ([| Value.Int 2 |], 0.6) ]
  in
  let s =
    Relation.of_independent reg [ "a"; "b" ]
      [
        ([| Value.Int 1; Value.Int 10 |], 0.7);
        ([| Value.Int 1; Value.Int 20 |], 0.4);
        ([| Value.Int 2; Value.Int 20 |], 0.9);
      ]
  in
  let t =
    Relation.of_independent reg [ "b" ]
      [ ([| Value.Int 10 |], 0.8); ([| Value.Int 20 |], 0.3) ]
  in
  [ ("R", r); ("S", s); ("T", t) ]

let q_hierarchical =
  [
    { Safe_plan.relation = "R"; vars = [ "x" ] };
    { Safe_plan.relation = "S"; vars = [ "x"; "y" ] };
  ]

let q_nonhierarchical =
  (* R(x), S(x,y), T(y): x and y co-occur only in S — the standard
     #P-hard pattern. *)
  [
    { Safe_plan.relation = "R"; vars = [ "x" ] };
    { Safe_plan.relation = "S"; vars = [ "x"; "y" ] };
    { Safe_plan.relation = "T"; vars = [ "y" ] };
  ]

let test_hierarchy_detection () =
  Alcotest.(check bool) "R-S is hierarchical" true
    (Safe_plan.is_hierarchical q_hierarchical);
  Alcotest.(check bool) "R-S-T is not" false
    (Safe_plan.is_hierarchical q_nonhierarchical);
  (match Safe_plan.plan q_hierarchical with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  match Safe_plan.plan q_nonhierarchical with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "plan for a non-hierarchical query"

let test_extensional_matches_intensional () =
  let reg = Lineage.Registry.create () in
  let inst = mk_instance reg in
  match Safe_plan.eval_extensional reg inst q_hierarchical with
  | Error e -> Alcotest.fail e
  | Ok p ->
      check_float "safe plan = lineage inference"
        (Safe_plan.eval_intensional reg inst q_hierarchical)
        p

let test_intensional_handles_hard_query () =
  let reg = Lineage.Registry.create () in
  let inst = mk_instance reg in
  let p = Safe_plan.eval_intensional reg inst q_nonhierarchical in
  Alcotest.(check bool) "a probability" true (Fcmp.is_probability p);
  (* cross-check against Monte Carlo *)
  let g = rng () in
  let f = Safe_plan.lineage inst q_nonhierarchical in
  let mc = Inference.probability_mc g reg ~samples:60_000 f in
  Alcotest.(check bool) "close to MC" true (abs_float (p -. mc) < 0.02)

let test_safe_plan_random_instances () =
  let g = rng () in
  for _ = 1 to 10 do
    let reg = Lineage.Registry.create () in
    let mk name arity rows =
      ( name,
        Relation.of_independent reg
          (List.init arity (fun i -> Printf.sprintf "%s%d" name i))
          (List.init rows (fun _ ->
               ( Array.init arity (fun _ -> Value.Int (Prng.int g 3)),
                 0.1 +. Prng.float g 0.8 ))) )
    in
    let inst = [ mk "R" 1 3; mk "S" 2 4 ] in
    let q =
      [
        { Safe_plan.relation = "R"; vars = [ "x" ] };
        { Safe_plan.relation = "S"; vars = [ "x"; "y" ] };
      ]
    in
    match Safe_plan.eval_extensional reg inst q with
    | Error e -> Alcotest.fail e
    | Ok p ->
        check_float "extensional = intensional"
          (Safe_plan.eval_intensional reg inst q)
          p
  done

let test_star_query_hierarchical () =
  (* star: R(x), S(x,y), T(x,z) — hierarchical (x is a root everywhere) *)
  let q =
    [
      { Safe_plan.relation = "R"; vars = [ "x" ] };
      { Safe_plan.relation = "S"; vars = [ "x"; "y" ] };
      { Safe_plan.relation = "T"; vars = [ "x"; "z" ] };
    ]
  in
  Alcotest.(check bool) "star is hierarchical" true (Safe_plan.is_hierarchical q);
  let g = rng () in
  for _ = 1 to 5 do
    let reg = Lineage.Registry.create () in
    let mk name arity rows =
      ( name,
        Relation.of_independent reg
          (List.init arity (fun i -> Printf.sprintf "%s%d" name i))
          (List.init rows (fun _ ->
               ( Array.init arity (fun _ -> Value.Int (Prng.int g 3)),
                 0.1 +. Prng.float g 0.8 ))) )
    in
    let inst = [ mk "R" 1 3; mk "S" 2 4; mk "T" 2 4 ] in
    match Safe_plan.eval_extensional reg inst q with
    | Error e -> Alcotest.fail e
    | Ok p ->
        check_float "star extensional = intensional"
          (Safe_plan.eval_intensional reg inst q)
          p
  done

let test_self_join_rejected () =
  let q =
    [
      { Safe_plan.relation = "R"; vars = [ "x" ] };
      { Safe_plan.relation = "R"; vars = [ "y" ] };
    ]
  in
  match Safe_plan.plan q with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-join accepted"

let test_plan_shape () =
  match Safe_plan.plan q_hierarchical with
  | Ok (Safe_plan.Independent_project ("x", _)) -> ()
  | Ok p -> Alcotest.failf "unexpected plan %s" (Format.asprintf "%a" Safe_plan.pp_plan p)
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "of_worlds figure 1" `Quick test_of_worlds_figure1;
    Alcotest.test_case "of_worlds residual" `Quick test_of_worlds_residual;
    Alcotest.test_case "simplify preserves distribution" `Quick
      test_simplify_preserves_distribution;
    Alcotest.test_case "simplify flattens" `Quick test_simplify_flattens;
    Alcotest.test_case "simplify nested xor" `Quick test_simplify_collapses_nested_xor;
    Alcotest.test_case "push_bernoulli" `Quick test_push_bernoulli;
    Alcotest.test_case "tree stats" `Quick test_stats;
    Alcotest.test_case "conditioning vs pair marginals" `Quick test_conditioning_vs_pair_marginals;
    Alcotest.test_case "conditioning ambiguity" `Quick test_conditioning_rejects_ambiguity;
    Alcotest.test_case "merge independent" `Quick test_merge_independent;
    Alcotest.test_case "pretty printers" `Quick test_pretty_printers_smoke;
    Alcotest.test_case "kendall_p specializes" `Quick test_kendall_p_specializes;
    Alcotest.test_case "kendall_p disjoint lists" `Quick test_kendall_p_disjoint;
    Alcotest.test_case "expected kendall_p vs enum" `Quick test_expected_kendall_p_vs_enum;
    Alcotest.test_case "pruning bound dominates" `Quick test_upper_bound_dominates;
    Alcotest.test_case "pruned PT-k matches full" `Quick test_pruned_matches_full;
    Alcotest.test_case "pruning saves work" `Quick test_pruning_saves_work;
    Alcotest.test_case "sampled consensus converges" `Slow test_sampled_consensus_converges;
    Alcotest.test_case "sampled consensus validates" `Quick test_sampled_consensus_validates;
    Alcotest.test_case "sampled answers are golden" `Quick test_sampled_answers_golden;
    Alcotest.test_case "hierarchy detection" `Quick test_hierarchy_detection;
    Alcotest.test_case "extensional = intensional" `Quick test_extensional_matches_intensional;
    Alcotest.test_case "intensional on hard query" `Slow test_intensional_handles_hard_query;
    Alcotest.test_case "safe plan random instances" `Quick test_safe_plan_random_instances;
    Alcotest.test_case "star query hierarchical" `Quick test_star_query_hierarchical;
    Alcotest.test_case "self-join rejected" `Quick test_self_join_rejected;
    Alcotest.test_case "plan shape" `Quick test_plan_shape;
  ]
