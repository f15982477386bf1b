(* Tests for tree simplification, the seeded samplers and safe plans. *)

open Consensus_util
open Consensus_anxor
open Consensus
open Consensus_pdb
module Gen = Consensus_workload.Gen
module Topk_list = Consensus_ranking.Topk_list

let check_float = Alcotest.(check (float 1e-6))
let rng () = Prng.create ~seed:60606 ()

(* ---------- Transform ---------- *)

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
    Alcotest.test_case "simplify preserves distribution" `Quick
      test_simplify_preserves_distribution;
    Alcotest.test_case "simplify flattens" `Quick test_simplify_flattens;
    Alcotest.test_case "simplify nested xor" `Quick test_simplify_collapses_nested_xor;
    Alcotest.test_case "pretty printers" `Quick test_pretty_printers_smoke;
    Alcotest.test_case "sampled answers are golden" `Quick test_sampled_answers_golden;
    Alcotest.test_case "hierarchy detection" `Quick test_hierarchy_detection;
    Alcotest.test_case "extensional = intensional" `Quick test_extensional_matches_intensional;
    Alcotest.test_case "intensional on hard query" `Slow test_intensional_handles_hard_query;
    Alcotest.test_case "safe plan random instances" `Quick test_safe_plan_random_instances;
    Alcotest.test_case "star query hierarchical" `Quick test_star_query_hierarchical;
    Alcotest.test_case "self-join rejected" `Quick test_self_join_rejected;
    Alcotest.test_case "plan shape" `Quick test_plan_shape;
  ]
