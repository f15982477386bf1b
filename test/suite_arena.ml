(* The flat-arena core: tree<->arena round trips, marginals against
   possible-world enumeration, builder validation, and the recursion-overflow regressions
   (deep and wide trees through every iterative path). *)
open Consensus_util
open Consensus_anxor
module Poly1 = Consensus_poly.Poly1
module Gen = Consensus_workload.Gen

let check_float = Alcotest.(check (float 1e-12))

let alt_key (a : Db.alt) = a.Db.key
let alt_value (a : Db.alt) = a.Db.value
let of_alt_tree t = Arena.of_tree ~key:alt_key ~value:alt_value t
let to_alt_tree a = Arena.to_tree ~leaf:(fun ~key ~value -> { Db.key; value }) a

(* ---------- round trips ---------- *)

let test_roundtrip_random () =
  let rng = Prng.create ~seed:20260807 () in
  for _ = 1 to 200 do
    let t = Gen.random_tree rng (1 + Prng.int rng 25) in
    let a = of_alt_tree t in
    Alcotest.(check int) "num_leaves" (Tree.num_leaves t) (Arena.num_leaves a);
    let t' = to_alt_tree a in
    Alcotest.(check string) "to_tree inverts of_tree" (Sexp_io.to_string t)
      (Sexp_io.to_string t')
  done

let test_single_leaf () =
  let t = Tree.leaf { Db.key = 7; value = 3.5 } in
  let a = of_alt_tree t in
  Alcotest.(check int) "one node" 1 (Arena.num_nodes a);
  Alcotest.(check int) "one leaf" 1 (Arena.num_leaves a);
  Alcotest.(check int) "depth 0" 0 (Arena.depth a);
  Alcotest.(check string) "round trip" (Sexp_io.to_string t)
    (Sexp_io.to_string (to_alt_tree a));
  (* the same shape through the streaming builder (regression: a top-level
     leaf must complete the build) *)
  match Sexp_io.parse "(leaf 7 3.5)" with
  | Error e -> Alcotest.fail e
  | Ok t' -> Alcotest.(check string) "parse" (Sexp_io.to_string t) (Sexp_io.to_string t')

(* ---------- parity with enumeration ---------- *)

let test_marginals_parity () =
  let rng = Prng.create ~seed:42 () in
  for _ = 1 to 100 do
    let t = Gen.random_tree rng (1 + Prng.int rng 12) in
    let am = Arena.marginals (of_alt_tree t) in
    let enumerated = Array.make (Tree.num_leaves t) 0. in
    Worlds.fold (fst (Tree.index t)) ~init:() ~f:(fun () p w ->
        List.iter (fun i -> enumerated.(i) <- enumerated.(i) +. p) w);
    Alcotest.(check int) "lengths" (Array.length enumerated) (Array.length am);
    Array.iteri (fun i m -> check_float "marginal" m am.(i)) enumerated
  done

let test_digest_stability () =
  let rng = Prng.create ~seed:11 () in
  for _ = 1 to 50 do
    let db = Gen.random_tree_db rng (1 + Prng.int rng 20) in
    let d = Db.digest db in
    let via_tree = Db.create ~check:false (Db.tree db) in
    Alcotest.(check string) "digest survives tree round trip" d
      (Db.digest via_tree);
    match Sexp_io.db_of_string (Sexp_io.db_to_string db) with
    | Error e -> Alcotest.fail e
    | Ok db' ->
        Alcotest.(check string) "digest survives text round trip" d (Db.digest db')
  done

(* ---------- builder validation ---------- *)

let test_builder_validation () =
  let open Arena.Builder in
  (* mass above 1 rejected at close, like Tree.xor *)
  let b = create () in
  open_xor b;
  leaf ~prob:0.8 b ~key:1 ~value:1.;
  leaf ~prob:0.7 b ~key:2 ~value:2.;
  (try
     close b;
     Alcotest.fail "xor mass 1.5 accepted"
   with Invalid_argument _ -> ());
  (* zero-probability edges are dropped, including whole subtrees *)
  let b = create () in
  open_xor b;
  leaf ~prob:0. b ~key:1 ~value:1.;
  open_and ~prob:0. b;
  leaf b ~key:2 ~value:2.;
  close b;
  leaf ~prob:0.5 b ~key:3 ~value:3.;
  close b;
  let a = finish b in
  Alcotest.(check int) "only the positive edge remains" 1 (Arena.num_leaves a);
  Alcotest.(check string) "dropped subtrees invisible"
    (Sexp_io.to_string (Tree.xor [ (0.5, Tree.leaf { Db.key = 3; value = 3. }) ]))
    (Sexp_io.to_string (to_alt_tree a));
  (* incomplete builds rejected *)
  let b = create () in
  open_and b;
  (try
     ignore (finish b);
     Alcotest.fail "incomplete tree accepted"
   with Invalid_argument _ -> ());
  let b = create () in
  (try
     ignore (finish b);
     Alcotest.fail "empty build accepted"
   with Invalid_argument _ -> ())

(* ---------- recursion-overflow regressions ---------- *)

let deep_chain depth =
  (* alternating xor/and spine, a leaf at the bottom *)
  let t = ref (Tree.leaf { Db.key = 1; value = 2. }) in
  for i = 1 to depth do
    t := if i land 1 = 0 then Tree.and_ [ !t ] else Tree.xor [ (0.999999, !t) ]
  done;
  !t

let test_deep_tree_stats () =
  let depth = 100_000 in
  let t = deep_chain depth in
  Alcotest.(check int) "num_leaves" 1 (Tree.num_leaves t);
  Alcotest.(check int) "num_nodes" (depth + 1) (Tree.num_nodes t);
  let a = of_alt_tree t in
  (match Arena.marginals a with
  | [| m |] ->
      (* one 0.999999 edge per xor level; 5e4 roundings apart from [**] *)
      Alcotest.(check (float 1e-9))
        "marginal" (0.999999 ** float_of_int (depth / 2)) m
  | _ -> Alcotest.fail "expected one leaf");
  Alcotest.(check int) "arena depth" depth (Arena.depth a);
  Alcotest.(check int) "arena nodes" (depth + 1) (Arena.num_nodes a);
  Alcotest.(check string) "deep round trip" (Sexp_io.to_string t)
    (Sexp_io.to_string (to_alt_tree a))

let test_deep_genfunc () =
  (* the generating-function engines must not recurse on the OCaml stack *)
  let depth = 100_000 in
  let t = deep_chain depth in
  let db = Db.create t in
  let p = Marginals.size_distribution db in
  check_float "mass 1" 1. (Poly1.sum_coeffs p);
  let r = Marginals.rank_dist_alt db 0 ~k:1 in
  check_float "rank dist matches marginal" (Db.marginal db 0) r.(0)

let test_wide_tree () =
  (* very wide And node: every path (stats, arena build, engines, writer)
     must be tail-safe; the million-leaf load lives in suite_io *)
  let leaves =
    List.init 200_000 (fun i -> Tree.leaf { Db.key = i; value = float_of_int i })
  in
  let t = Tree.and_ leaves in
  Alcotest.(check int) "num_leaves" 200_000 (Tree.num_leaves t);
  let a = of_alt_tree t in
  Alcotest.(check int) "arena leaves" 200_000 (Arena.num_leaves a);
  let s = Sexp_io.to_string t in
  match Sexp_io.parse s with
  | Error e -> Alcotest.fail e
  | Ok t' -> Alcotest.(check int) "reparsed" 200_000 (Tree.num_leaves t')

let suite =
  [
    Alcotest.test_case "tree round trip (random)" `Quick test_roundtrip_random;
    Alcotest.test_case "single leaf" `Quick test_single_leaf;
    Alcotest.test_case "marginals parity" `Quick test_marginals_parity;
    Alcotest.test_case "digest stability" `Quick test_digest_stability;
    Alcotest.test_case "builder validation" `Quick test_builder_validation;
    Alcotest.test_case "deep tree stats" `Quick test_deep_tree_stats;
    Alcotest.test_case "deep genfunc" `Quick test_deep_genfunc;
    Alcotest.test_case "wide tree" `Quick test_wide_tree;
  ]
