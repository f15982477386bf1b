open Consensus_util
open Consensus_anxor
open Consensus_ranking

let check_float = Alcotest.(check (float 1e-9))
let rng () = Prng.create ~seed:777 ()

(* ---------- Topk_list metrics ---------- *)

let test_of_world () =
  let w =
    [
      { Db.key = 1; value = 5. };
      { Db.key = 2; value = 9. };
      { Db.key = 3; value = 1. };
    ]
  in
  Alcotest.(check (array int)) "ordered by value" [| 2; 1 |] (Topk_list.of_world ~k:2 w);
  Alcotest.(check (array int)) "short world" [| 2; 1; 3 |] (Topk_list.of_world ~k:5 w)

let test_sym_diff () =
  check_float "identical" 0. (Topk_list.sym_diff ~k:2 [| 1; 2 |] [| 2; 1 |]);
  check_float "disjoint" 1. (Topk_list.sym_diff ~k:2 [| 1; 2 |] [| 3; 4 |]);
  check_float "half" 0.5 (Topk_list.sym_diff ~k:2 [| 1; 2 |] [| 1; 3 |])

let test_intersection () =
  (* Fagin's example-style check: same sets, different order *)
  let d = Topk_list.intersection ~k:2 [| 1; 2 |] [| 2; 1 |] in
  (* depth 1: prefixes {1} vs {2}: sym diff = 2/(2*1) = 1; depth 2: 0 *)
  check_float "order matters" 0.5 d;
  check_float "identical" 0. (Topk_list.intersection ~k:3 [| 1; 2; 3 |] [| 1; 2; 3 |]);
  check_float "disjoint" 1. (Topk_list.intersection ~k:2 [| 1; 2 |] [| 3; 4 |])

let test_footrule () =
  (* identical lists: 0 *)
  check_float "identical" 0. (Topk_list.footrule ~k:3 [| 1; 2; 3 |] [| 1; 2; 3 |]);
  (* swap two adjacent: |1-2| + |2-1| = 2 *)
  check_float "swap" 2. (Topk_list.footrule ~k:2 [| 1; 2 |] [| 2; 1 |]);
  (* disjoint k=1: both elements displaced to 2: |1-2|*2 = 2 *)
  check_float "disjoint" 2. (Topk_list.footrule ~k:1 [| 1 |] [| 2 |])

let test_footrule_metric_axioms () =
  let g = rng () in
  let random_list () =
    let len = 1 + Prng.int g 3 in
    let keys = Prng.sample_distinct g len 6 in
    Array.of_list keys
  in
  for _ = 1 to 200 do
    let a = random_list () and b = random_list () and c = random_list () in
    let d = Topk_list.footrule ~k:3 in
    check_float "symmetry" (d a b) (d b a);
    Alcotest.(check bool) "triangle" true (d a c <= d a b +. d b c +. 1e-9);
    check_float "identity" 0. (d a a)
  done

let test_kendall () =
  check_float "identical" 0. (Topk_list.kendall ~k:2 [| 1; 2 |] [| 1; 2 |]);
  (* swapped pair, both lists contain both: 1 forced disagreement *)
  check_float "swap" 1. (Topk_list.kendall ~k:2 [| 1; 2 |] [| 2; 1 |]);
  (* disjoint lists k=2: pairs (1,3),(1,4),(2,3),(2,4) forced; (1,2),(3,4) free *)
  check_float "disjoint" 4. (Topk_list.kendall ~k:2 [| 1; 2 |] [| 3; 4 |]);
  (* one common element *)
  (* τ1=[1;2] τ2=[1;3]: pair (2,3) forced (2 only in τ1, 3 only in τ2);
     (1,2): 1 before 2 in τ1, 2 missing in τ2 -> extensions put 2 after 1:
     agree. (1,3): agree likewise. So 1. *)
  check_float "one common" 1. (Topk_list.kendall ~k:2 [| 1; 2 |] [| 1; 3 |])

let test_kendall_footrule_relation () =
  (* dK <= dF (Diaconis–Graham style bound extended to top-k lists:
     the footrule with location parameter dominates K_min). *)
  let g = rng () in
  for _ = 1 to 300 do
    let len1 = 1 + Prng.int g 3 and len2 = 1 + Prng.int g 3 in
    let a = Array.of_list (Prng.sample_distinct g len1 6) in
    let b = Array.of_list (Prng.sample_distinct g len2 6) in
    let dk = Topk_list.kendall ~k:3 a b and df = Topk_list.footrule ~k:3 a b in
    Alcotest.(check bool)
      (Printf.sprintf "K_min <= footrule (%g vs %g)" dk df)
      true (dk <= df +. 1e-9)
  done

let test_validate () =
  Alcotest.check_raises "duplicates" (Invalid_argument "Topk_list.validate: duplicate keys")
    (fun () -> Topk_list.validate ~k:3 [| 1; 1 |]);
  Alcotest.check_raises "too long" (Invalid_argument "Topk_list.validate: longer than k")
    (fun () -> Topk_list.validate ~k:1 [| 1; 2 |])

(* ---------- Aggregation ---------- *)

let random_pref g n =
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let p = Prng.uniform g in
      m.(i).(j) <- p;
      m.(j).(i) <- 1. -. p
    done
  done;
  m

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs

let brute_kemeny pref =
  let n = Array.length pref in
  permutations (List.init n Fun.id)
  |> List.map (fun p -> Aggregation.cost pref (Array.of_list p))
  |> List.fold_left Float.min infinity

(* n = 1..8 covers the empty low half of the subset-sum split (n = 1) and
   both odd and even splits. *)
let test_kemeny_exact_vs_brute () =
  let g = rng () in
  for n = 1 to 8 do
    for _ = 1 to 4 do
      let pref = random_pref g n in
      let order, c = Aggregation.kemeny_exact pref in
      check_float "kemeny matches brute force" (brute_kemeny pref) c;
      check_float "kemeny cost is its order's" (Aggregation.cost pref order) c
    done
  done

(* Every order of an all-equal matrix costs the same; the DP keeps the
   first candidate it meets, the highest item last, down to the identity. *)
let test_kemeny_exact_ties () =
  List.iter
    (fun w ->
      for n = 1 to 10 do
        let pref = Array.init n (fun i -> Array.init n (fun j -> if i = j then 0. else w)) in
        Alcotest.(check (array int))
          (Printf.sprintf "identity order n=%d w=%g" n w)
          (Array.init n Fun.id)
          (fst (Aggregation.kemeny_exact pref))
      done)
    [ 0.5; 0.3; 1. ]

(* The exponential sweep polls the ambient deadline: a 16-item instance
   under an already expired token must raise, not run to the end. *)
let test_kemeny_exact_deadline () =
  let token = Deadline.make () in
  Deadline.cancel token;
  let pref = random_pref (rng ()) 16 in
  match Deadline.with_current token (fun () -> Aggregation.kemeny_exact pref) with
  | _ -> Alcotest.fail "kemeny_exact ignored an expired deadline"
  | exception Deadline.Expired -> ()

(* The Held–Karp DP over all items at once, with no split into Condorcet
   components: the reference for [kemeny_exact]'s orders and cost bits. *)
let reference_kemeny pref =
  let n = Array.length pref in
  if n = 0 then ([||], 0.)
  else begin
    let size = 1 lsl n in
    let h = n / 2 in
    let subset_sums sets offset =
      let table = Array.make (sets * n) 0. in
      let top = ref 0 in
      for m = 1 to sets - 1 do
        if m = 2 lsl !top then incr top;
        let here = m * n and prev = (m lxor (1 lsl !top)) * n in
        let u = offset + !top in
        for v = 0 to n - 1 do
          table.(here + v) <- table.(prev + v) +. pref.(v).(u)
        done
      done;
      table
    in
    let lo = subset_sums (1 lsl h) 0 and hi = subset_sums (1 lsl (n - h)) h in
    let dp = Array.make size infinity in
    let choice = Array.make size (-1) in
    dp.(0) <- 0.;
    let lmask = (1 lsl h) - 1 in
    for mask = 1 to size - 1 do
      let best = ref infinity and last = ref (-1) in
      for v = n - 1 downto 0 do
        let prev = mask lxor (1 lsl v) in
        let extra =
          lo.(((prev land lmask) * n) + v) +. hi.(((prev lsr h) * n) + v)
        in
        let c = dp.(prev) +. extra in
        if c < !best -. 1e-15 then begin
          best := c;
          last := v
        end
      done;
      dp.(mask) <- !best;
      choice.(mask) <- !last
    done;
    let order = Array.make n 0 in
    let mask = ref (size - 1) in
    for pos = n - 1 downto 0 do
      let v = choice.(!mask) in
      order.(pos) <- v;
      mask := !mask lxor (1 lsl v)
    done;
    (order, dp.(size - 1))
  end

let check_same_as_reference what pref =
  let order, c = Aggregation.kemeny_exact pref in
  let ref_order, ref_c = reference_kemeny pref in
  if order <> ref_order || Int64.bits_of_float c <> Int64.bits_of_float ref_c then
    Alcotest.failf "%s (n=%d): order [%s] cost %h, reference [%s] cost %h" what
      (Array.length pref)
      (String.concat ";" (Array.to_list (Array.map string_of_int order)))
      c
      (String.concat ";" (Array.to_list (Array.map string_of_int ref_order)))
      ref_c

(* Integer costs 0..3 tie often, inside components and across them. *)
let test_kemeny_components_ties () =
  let g = Prng.create ~seed:3030 () in
  for iter = 1 to 500 do
    let n = 1 + Prng.int g 10 in
    let pref =
      Array.init n (fun i ->
          Array.init n (fun j -> if i = j then 0. else float_of_int (Prng.int g 4)))
    in
    check_same_as_reference (Printf.sprintf "tie-heavy matrix %d" iter) pref
  done;
  (* Near-ties below the DP's 1e-15 tolerance: entries 1 + k ulp, k < 4,
     must stay inside one component. *)
  for iter = 1 to 200 do
    let n = 2 + Prng.int g 9 in
    let pref =
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i = j then 0. else 1. +. (float_of_int (Prng.int g 4) *. epsilon_float)))
    in
    check_same_as_reference (Printf.sprintf "near-tie matrix %d" iter) pref
  done

(* The matrices [Rank_consensus.mean_kendall_exact] hands the DP: the
   transposed disagreement matrices of BID, x-tuple, independent and
   and/xor-tree databases with at most 16 keys. *)
let test_kemeny_components_databases () =
  let module Gen = Consensus_workload.Gen in
  let module Rank_consensus = Consensus.Rank_consensus in
  let g = Prng.create ~seed:4040 () in
  for iter = 1 to 320 do
    let db =
      match iter mod 4 with
      | 0 -> Gen.bid_db g (2 + Prng.int g 15)
      | 1 -> Gen.xtuple_db g (1 + Prng.int g 5)
      | 2 -> Gen.independent_db g (2 + Prng.int g 15)
      | _ -> Gen.random_tree_db g (2 + Prng.int g 15)
    in
    let w = Rank_consensus.disagreement_matrix (Rank_consensus.make_ctx db) in
    let n = Array.length w in
    let pref = Array.init n (fun a -> Array.init n (fun b -> w.(b).(a))) in
    check_same_as_reference (Printf.sprintf "database %d" iter) pref
  done

(* A Condorcet 3-cycle among strictly ordered singletons: the cycle's
   items stay together at their forced place, and the cost is the brute
   force optimum. *)
let test_kemeny_components_cycle () =
  let g = Prng.create ~seed:5050 () in
  for n = 3 to 8 do
    for _ = 1 to 5 do
      (* place.(i): the forced place of item i; the three items of the
         cycle, at positions c..c+2 of the shuffle, share place c. *)
      let items = Array.init n Fun.id in
      Prng.shuffle g items;
      let c = Prng.int g (n - 2) in
      let place = Array.make n 0 in
      Array.iteri
        (fun pos i -> place.(i) <- (if pos < c then pos else max c (pos - 2)))
        items;
      let cycle = Array.sub items c 3 in
      let pref = Array.make_matrix n n 0. in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if a <> b then begin
            let p = 0.6 +. (0.3 *. Prng.uniform g) in
            if place.(a) < place.(b) then begin
              pref.(a).(b) <- p;
              pref.(b).(a) <- 1. -. p
            end
          end
        done
      done;
      for k = 0 to 2 do
        let a = cycle.(k) and b = cycle.((k + 1) mod 3) in
        pref.(a).(b) <- 0.7;
        pref.(b).(a) <- 0.3
      done;
      Alcotest.(check (list int)) "cycle: component sizes"
        (List.init (n - 2) (fun i -> if i = c then 3 else 1))
        (Array.to_list (Array.map Array.length (Aggregation.condorcet_components pref)));
      let order, cost = Aggregation.kemeny_exact pref in
      check_float "cycle: brute force optimum" (brute_kemeny pref) cost;
      check_float "cycle: cost is its order's" (Aggregation.cost pref order) cost;
      Alcotest.(check (array int)) "cycle: forced places"
        (Array.map (fun i -> place.(i)) items)
        (Array.map (fun i -> place.(i)) order);
      check_same_as_reference "cycle" pref
    done
  done

let test_pivot_quality () =
  let g = rng () in
  for _ = 1 to 20 do
    let n = 3 + Prng.int g 5 in
    let pref = random_pref g n in
    let _, opt = Aggregation.kemeny_exact pref in
    let _, piv = Aggregation.best_pivot_of g ~trials:5 pref in
    Alcotest.(check bool)
      (Printf.sprintf "pivot within 2x of optimal (%g vs %g)" piv opt)
      true
      (piv <= (2. *. opt) +. 1e-9)
  done

let test_local_search_improves () =
  let g = rng () in
  for _ = 1 to 20 do
    let n = 3 + Prng.int g 6 in
    let pref = random_pref g n in
    let order0 = Array.init n Fun.id in
    Prng.shuffle g order0;
    let start = Aggregation.cost pref order0 in
    let improved, c = Aggregation.local_search pref order0 in
    Alcotest.(check bool) "no worse" true (c <= start +. 1e-9);
    check_float "cost is consistent" (Aggregation.cost pref improved) c;
    let sorted = Array.copy improved in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "still a permutation" (Array.init n Fun.id) sorted
  done

(* A full permutation of n keys is a top-n list holding every key, where
   the top-k metrics are the usual permutation distances. *)
let test_permutation_metrics () =
  let a = [| 0; 1; 2; 3 |] and b = [| 3; 2; 1; 0 |] in
  check_float "kendall reversal" 6. (Topk_list.kendall ~k:4 a b);
  check_float "footrule reversal" 8. (Topk_list.footrule ~k:4 a b);
  check_float "kendall self" 0. (Topk_list.kendall ~k:4 a a)

let test_diaconis_graham () =
  (* K <= F <= 2K for full permutations. *)
  let g = rng () in
  for _ = 1 to 100 do
    let n = 2 + Prng.int g 6 in
    let a = Array.init n Fun.id and b = Array.init n Fun.id in
    Prng.shuffle g a;
    Prng.shuffle g b;
    let k = Topk_list.kendall ~k:n a b and f = Topk_list.footrule ~k:n a b in
    Alcotest.(check bool) "K <= F" true (k <= f);
    Alcotest.(check bool) "F <= 2K" true (f <= 2. *. k)
  done

let test_footrule_aggregation () =
  (* Footrule-optimal aggregation of full rankings (Dwork et al.) is an
     assignment of positions to items with cost Σ_v |pos - π_v(item)|; the
     Hungarian optimum must match brute force over permutations. *)
  let g = rng () in
  for _ = 1 to 20 do
    let n = 2 + Prng.int g 4 in
    let voters =
      List.init (1 + Prng.int g 3) (fun _ ->
          let v = Array.init n Fun.id in
          Prng.shuffle g v;
          v)
    in
    let total sigma =
      List.fold_left (fun acc v -> acc +. Topk_list.footrule ~k:n sigma v) 0. voters
    in
    let cost =
      Array.init n (fun pos ->
          Array.init n (fun item ->
              List.fold_left
                (fun acc v ->
                  acc +. float_of_int (abs (pos + 1 - Option.get (Topk_list.position v item))))
                0. voters))
    in
    let order, best = Consensus_matching.Hungarian.minimize cost in
    let brute =
      permutations (List.init n Fun.id)
      |> List.map (fun p -> total (Array.of_list p))
      |> List.fold_left Float.min infinity
    in
    check_float "footrule aggregation optimal" brute best;
    check_float "reported cost is the order's" (total order) best;
    let sorted = List.sort compare (Array.to_list order) in
    Alcotest.(check (list int)) "permutation" (List.init n Fun.id) sorted
  done

(* ---------- Ranking functions over the rank table ---------- *)

module Topk_consensus = Consensus.Topk_consensus

let fig1_iii () =
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

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let test_global_topk () =
  (* Theorem 3: the mean answer under the symmetric difference is the
     Global-Top-k answer, the k keys with largest Pr(r <= k). *)
  let db = fig1_iii () in
  let answer k = sorted (Topk_consensus.mean_sym_diff (Topk_consensus.make_ctx db ~k)) in
  (* Pr(r <= 1): t3: 0.6, t2: 0.4, others 0. *)
  Alcotest.(check (array int)) "top-1" [| 3 |] (answer 1);
  (* k=2: Pr(r<=2): t3 .6; t2 .3+.4=.7; t1 .3; t4 .4; t5 0 *)
  Alcotest.(check (array int)) "top-2" [| 2; 3 |] (answer 2)

let test_u_kranks () =
  (* U-kRanks reports, for each position i <= k, the key most likely at
     rank i: position 1: t3 (0.6); position 2: t1 0.3 / t2 0.3 / t4 0.4 ->
     t4. *)
  let table = Marginals.rank_table (fig1_iii ()) ~k:2 in
  let most_likely i =
    fst
      (List.fold_left
         (fun (best, p) (key, dist) -> if dist.(i) > p then (key, dist.(i)) else (best, p))
         (-1, neg_infinity) table)
  in
  Alcotest.(check (array int)) "u-kranks" [| 3; 4 |] (Array.init 2 most_likely)

let test_expected_scores () =
  let db = fig1_iii () in
  (* E score: t3: .3*6+.3*9=4.5; t2: .3*5+.4*8=4.7; t1: .3*1+.3*7=2.4;
     t4: .3*0+.4*4=1.6; t5: .4*3=1.2 *)
  let e = Marginals.expected_value db in
  check_float "t2" 4.7 (e 2);
  let by_score = List.sort (fun a b -> Float.compare (e b) (e a)) (Array.to_list (Db.keys db)) in
  Alcotest.(check (list int)) "by expected score" [ 2; 3; 1; 4; 5 ] by_score

let test_upsilon_h_equals_global_top1 () =
  (* For k=1 the ΥH answer reduces to the key with largest Pr(r=1). *)
  let g = rng () in
  for _ = 1 to 10 do
    let ctx = Topk_consensus.make_ctx (Consensus_workload.Gen.independent_db g 8) ~k:1 in
    Alcotest.(check (array int)) "k=1 coincide"
      (Topk_consensus.mean_sym_diff ctx)
      (Topk_consensus.mean_intersection_upsilon ctx)
  done

let test_prf_specializes_to_global_topk () =
  (* A PRF scores a key by Σ_i w(i)·Pr(r = i); with w(i) = 1 for i <= k and
     0 otherwise it ranks by Pr(r <= k), so its k best keys are Theorem 3's
     mean answer. *)
  let g = rng () in
  for _ = 1 to 5 do
    let db = Consensus_workload.Gen.independent_db g 7 in
    let k = 3 in
    let w i = if i <= k then 1. else 0. in
    let prf =
      Array.map2
        (fun key row ->
          let s = ref 0. in
          Array.iteri (fun m p -> s := !s +. (w (m + 1) *. p)) row;
          (!s, key))
        (Db.keys db) (Marginals.full_rank_table db)
    in
    Array.sort (fun a b -> compare b a) prf;
    Alcotest.(check (array int)) "prf = global topk"
      (sorted (Topk_consensus.mean_sym_diff (Topk_consensus.make_ctx db ~k)))
      (sorted (Array.init k (fun i -> snd prf.(i))))
  done

let test_pt_k_threshold () =
  let db = fig1_iii () in
  let answer =
    Array.to_list (Db.keys db)
    |> List.filter (fun key -> Marginals.rank_leq db key ~k:2 >= 0.5)
    |> List.sort compare
  in
  (* Pr(r<=2): t2 .7, t3 .6 are the only ones above 0.5 *)
  Alcotest.(check (list int)) "thresholded" [ 2; 3 ] answer

let suite =
  [
    Alcotest.test_case "of_world" `Quick test_of_world;
    Alcotest.test_case "sym_diff metric" `Quick test_sym_diff;
    Alcotest.test_case "intersection metric" `Quick test_intersection;
    Alcotest.test_case "footrule metric" `Quick test_footrule;
    Alcotest.test_case "footrule metric axioms" `Quick test_footrule_metric_axioms;
    Alcotest.test_case "kendall K_min" `Quick test_kendall;
    Alcotest.test_case "kendall <= footrule" `Quick test_kendall_footrule_relation;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "kemeny exact vs brute" `Quick test_kemeny_exact_vs_brute;
    Alcotest.test_case "pivot quality" `Quick test_pivot_quality;
    Alcotest.test_case "local search improves" `Quick test_local_search_improves;
    Alcotest.test_case "permutation metrics" `Quick test_permutation_metrics;
    Alcotest.test_case "diaconis-graham" `Quick test_diaconis_graham;
    Alcotest.test_case "footrule aggregation optimal" `Quick test_footrule_aggregation;
    Alcotest.test_case "global top-k" `Quick test_global_topk;
    Alcotest.test_case "u-kranks" `Quick test_u_kranks;
    Alcotest.test_case "expected scores" `Quick test_expected_scores;
    Alcotest.test_case "upsilon-h k=1" `Quick test_upsilon_h_equals_global_top1;
    Alcotest.test_case "prf specializes" `Quick test_prf_specializes_to_global_topk;
    Alcotest.test_case "pt-k threshold" `Quick test_pt_k_threshold;
    Alcotest.test_case "kemeny exact ties" `Quick test_kemeny_exact_ties;
    Alcotest.test_case "kemeny exact honours deadlines" `Quick test_kemeny_exact_deadline;
    Alcotest.test_case "kemeny components: tie-heavy differential" `Quick
      test_kemeny_components_ties;
    Alcotest.test_case "kemeny components: database differential" `Quick
      test_kemeny_components_databases;
    Alcotest.test_case "kemeny components: condorcet cycle" `Quick
      test_kemeny_components_cycle;
  ]
