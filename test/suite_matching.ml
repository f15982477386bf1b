open Consensus_util
open Consensus_matching

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Hungarian ---------- *)

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs

let brute_min_assignment cost =
  let n = Array.length cost and m = Array.length cost.(0) in
  let cols = List.init m Fun.id in
  (* choose an injection rows -> cols *)
  let rec choose rows used =
    match rows with
    | [] -> [ [] ]
    | r :: rest ->
        List.concat_map
          (fun c ->
            if List.mem c used then []
            else List.map (fun tail -> (r, c) :: tail) (choose rest (c :: used)))
          cols
  in
  choose (List.init n Fun.id) []
  |> List.map (fun assign ->
         List.fold_left (fun acc (r, c) -> acc +. cost.(r).(c)) 0. assign)
  |> List.fold_left Float.min infinity

let test_hungarian_known () =
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let assignment, total = Hungarian.minimize cost in
  check_float "optimal value" 5. total;
  (* assignment must be a permutation *)
  let sorted = Array.copy assignment in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" [| 0; 1; 2 |] sorted

let test_hungarian_vs_brute () =
  let g = Prng.create ~seed:99 () in
  for _ = 1 to 50 do
    let n = 1 + Prng.int g 5 in
    let m = n + Prng.int g 3 in
    let cost =
      Array.init n (fun _ -> Array.init m (fun _ -> Prng.float g 10. -. 5.))
    in
    let _, total = Hungarian.minimize cost in
    check_float "matches brute force" (brute_min_assignment cost) total
  done

let test_hungarian_maximize () =
  let profit = [| [| 1.; 9. |]; [| 8.; 2. |] |] in
  let assignment, total = Hungarian.maximize profit in
  check_float "max total" 17. total;
  Alcotest.(check (array int)) "assignment" [| 1; 0 |] assignment

let test_hungarian_rectangular () =
  let cost = [| [| 10.; 1.; 10.; 10. |] |] in
  let assignment, total = Hungarian.minimize cost in
  check_float "picks cheapest column" 1. total;
  Alcotest.(check int) "column" 1 assignment.(0)

let test_hungarian_errors () =
  (try
     ignore (Hungarian.minimize [| [| 1. |]; [| 2. |] |]);
     Alcotest.fail "rows > cols accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Hungarian.minimize [| [| 1.; 2. |]; [| 1. |] |]);
     Alcotest.fail "ragged matrix accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Hungarian.minimize [| [| nan |] |]);
    Alcotest.fail "nan accepted"
  with Invalid_argument _ -> ()

(* Integer costs in 0..3 make many optimal assignments, so the solve's
   comparisons meet exact ties; the sums are exact, so the optimum is
   checked exactly, by a depth-first search over injections. *)
let test_hungarian_tie_heavy () =
  let g = Prng.create ~seed:29 () in
  for _ = 1 to 300 do
    let n = 1 + Prng.int g 7 in
    let m = n + Prng.int g 3 in
    let cost =
      Array.init n (fun _ -> Array.init m (fun _ -> float_of_int (Prng.int g 4)))
    in
    let best = ref infinity in
    let used = Array.make m false in
    let rec search row acc =
      if row = n then best := Float.min !best acc
      else
        for c = 0 to m - 1 do
          if not used.(c) then begin
            used.(c) <- true;
            search (row + 1) (acc +. cost.(row).(c));
            used.(c) <- false
          end
        done
    in
    search 0 0.;
    let assignment, total = Hungarian.minimize cost in
    Alcotest.(check (float 0.)) "brute-force optimum" !best total;
    let seen = Array.make m false in
    Array.iter
      (fun c ->
        if seen.(c) then Alcotest.failf "column %d assigned twice" c;
        seen.(c) <- true)
      assignment;
    let sum = ref 0. in
    Array.iteri (fun r c -> sum := !sum +. cost.(r).(c)) assignment;
    Alcotest.(check (float 0.)) "assignment cost" total !sum
  done

(* ---------- the solver against the reference ---------- *)

module Gen = Consensus_workload.Gen
module Rank_consensus = Consensus.Rank_consensus

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1_000_000)

let rel_close a b =
  Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* [s] assigns every row a distinct column, its total is the row-order sum
   of those cells, and the total is the reference solver's optimum within
   1e-12 relative ([exact]: bit for bit). *)
let agrees_with_reference ?(exact = false) cost (s : Hungarian.solution) =
  let m = Array.length cost.(0) in
  let seen = Array.make m false in
  let injective =
    Array.for_all
      (fun c ->
        let fresh = c >= 0 && c < m && not seen.(c) in
        if fresh then seen.(c) <- true;
        fresh)
      s.assignment
  in
  let sum = ref 0. in
  Array.iteri (fun r c -> sum := !sum +. cost.(r).(c)) s.assignment;
  let _, best = Hungarian_ref.minimize cost in
  injective && !sum = s.total
  && if exact then s.total = best else rel_close s.total best

let random_prices g m = Array.init m (fun _ -> Prng.float g 6. -. 3.)

let solve ?prices cost =
  Hungarian.solve ?prices ~rows:(Array.length cost) ~cols:(Array.length cost.(0))
    (Array.get cost)

(* Random square and k × n matrices; the square ones also from random
   prices, which are feasible starting duals for any square problem. *)
let prop_random_vs_reference =
  QCheck.Test.make ~name:"hungarian random vs reference" ~count:300 arb_seed
    (fun seed ->
      let g = Prng.create ~seed () in
      let n = 1 + Prng.int g 12 in
      let m = if Prng.bool g then n else n + Prng.int g 20 in
      let scale = Prng.choose g [| 1.; 1e-6; 1e6 |] in
      let cost =
        Array.init n (fun _ -> Array.init m (fun _ -> scale *. (Prng.float g 10. -. 5.)))
      in
      agrees_with_reference cost (solve cost)
      && (m <> n || agrees_with_reference cost (solve ~prices:(random_prices g m) cost)))

(* Costs in {0, 1, 2}: most comparisons meet exact ties, and every sum is
   exact, so the optimum must match the reference's bit for bit. *)
let prop_tie_heavy_vs_reference =
  QCheck.Test.make ~name:"hungarian tie-heavy vs reference" ~count:300
    arb_seed (fun seed ->
      let g = Prng.create ~seed () in
      let n = 1 + Prng.int g 14 in
      let m = if Prng.bool g then n else n + Prng.int g 6 in
      let cost =
        Array.init n (fun _ -> Array.init m (fun _ -> float_of_int (Prng.int g 3)))
      in
      let integral = Array.init m (fun _ -> float_of_int (Prng.int g 5 - 2)) in
      agrees_with_reference ~exact:true cost (solve cost)
      && (m <> n || agrees_with_reference ~exact:true cost (solve ~prices:integral cost)))

(* The complete-ranking footrule matrices of every database shape, from
   zero prices, from the footrule's own threshold prices
   ([Rank_consensus.footrule_assignment]) and from random prices. *)
let prop_footrule_vs_reference =
  QCheck.Test.make ~name:"hungarian footrule vs reference" ~count:300
    arb_seed (fun seed ->
      let g = Prng.create ~seed () in
      let n = 1 + Prng.int g 30 in
      let db =
        match Prng.int g 6 with
        | 0 -> Gen.independent_db g n
        | 1 -> Gen.bid_db g n
        | 2 -> Gen.xtuple_db g (1 + (n / 3))
        | 3 -> Gen.random_tree_db g n
        | 4 -> Gen.random_keyed_tree g n
        | _ -> Gen.small_db g ~max_leaves:12
      in
      let ctx = Rank_consensus.make_ctx db in
      let cost = Rank_consensus.footrule_costs ctx in
      let m = Array.length cost in
      agrees_with_reference cost (solve cost)
      && agrees_with_reference cost (Rank_consensus.footrule_assignment ctx)
      && agrees_with_reference cost (solve ~prices:(random_prices g m) cost))

(* The search polls the ambient deadline token. *)
let test_hungarian_deadline () =
  let cost = Array.init 20 (fun i -> Array.init 20 (fun j -> float_of_int ((i * j) mod 7))) in
  let token = Deadline.make () in
  Deadline.cancel token;
  match Deadline.with_current token (fun () -> Hungarian.minimize cost) with
  | _ -> Alcotest.fail "a cancelled token did not stop the solve"
  | exception Deadline.Expired -> ()

let test_hungarian_prices_validation () =
  let cost = [| [| 1.; 2.; 3. |] |] in
  (try
     ignore (solve ~prices:[| 0.; 0.; 0. |] cost);
     Alcotest.fail "prices on a rectangular problem accepted"
   with Invalid_argument _ -> ());
  try
    ignore (solve ~prices:[| nan |] [| [| 1. |] |]);
    Alcotest.fail "nan price accepted"
  with Invalid_argument _ -> ()

(* ---------- Min-cost flow ---------- *)

let test_mcf_simple_path () =
  let net = Min_cost_flow.create 3 in
  let e1 = Min_cost_flow.add_edge net ~src:0 ~dst:1 ~cap:2 ~cost:1. in
  let e2 = Min_cost_flow.add_edge net ~src:1 ~dst:2 ~cap:1 ~cost:1. in
  let flow, cost = Min_cost_flow.min_cost_flow net ~source:0 ~sink:2 () in
  Alcotest.(check int) "flow" 1 flow;
  check_float "cost" 2. cost;
  Alcotest.(check int) "edge 1 flow" 1 (Min_cost_flow.flow_on net e1);
  Alcotest.(check int) "edge 2 flow" 1 (Min_cost_flow.flow_on net e2)

let test_mcf_prefers_cheap_path () =
  let net = Min_cost_flow.create 4 in
  let cheap = Min_cost_flow.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1. in
  ignore (Min_cost_flow.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:1.);
  let costly = Min_cost_flow.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:10. in
  ignore (Min_cost_flow.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:10.);
  let flow, cost = Min_cost_flow.min_cost_flow net ~source:0 ~sink:3 ~max_flow:1 () in
  Alcotest.(check int) "flow" 1 flow;
  check_float "uses cheap path" 2. cost;
  Alcotest.(check int) "cheap used" 1 (Min_cost_flow.flow_on net cheap);
  Alcotest.(check int) "costly unused" 0 (Min_cost_flow.flow_on net costly)

let test_mcf_negative_costs () =
  (* Negative edge on an alternative path; SPFA must pick it. *)
  let net = Min_cost_flow.create 4 in
  ignore (Min_cost_flow.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:5.);
  ignore (Min_cost_flow.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:0.);
  ignore (Min_cost_flow.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:2.);
  ignore (Min_cost_flow.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:(-1.));
  let flow, cost = Min_cost_flow.min_cost_flow net ~source:0 ~sink:3 ~max_flow:1 () in
  Alcotest.(check int) "flow" 1 flow;
  check_float "negative path chosen" 1. cost

let test_mcf_residual_rerouting () =
  (* Classic example where the second augmentation must push flow back. *)
  let net = Min_cost_flow.create 4 in
  ignore (Min_cost_flow.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1.);
  ignore (Min_cost_flow.add_edge net ~src:0 ~dst:2 ~cap:1 ~cost:2.);
  ignore (Min_cost_flow.add_edge net ~src:1 ~dst:2 ~cap:1 ~cost:0.);
  ignore (Min_cost_flow.add_edge net ~src:1 ~dst:3 ~cap:1 ~cost:4.);
  ignore (Min_cost_flow.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:1.);
  let flow, cost = Min_cost_flow.min_cost_flow net ~source:0 ~sink:3 () in
  Alcotest.(check int) "max flow 2" 2 flow;
  (* optimal: 0-1-2-3 (cost 2) + 0-2? cap... paths: 0-1-3 (5) and 0-2-3 (3)
     = 8, or 0-1-2-3 (2) and then 0-2 is full? 0-2-3 blocked by cap on 2-3.
     Best total: 0-1-2-3 cost 2 + 0-2-3 impossible (2-3 saturated) so
     0-1... 0-1 saturated. Second path: 0-2 -> 2-1? no reverse... via
     residual of 1-2: 0-2, 2-1(residual), 1-3: cost 2 + 4 - 0 = 6. total 8.
     Alternatively direct: 0-1-3 (5) + 0-2-3 (3) = 8. *)
  check_float "min cost" 8. cost

let test_solve_bounded_forced_edge () =
  (* Lower bound forces the expensive route. *)
  let edges =
    [
      { Min_cost_flow.src = 0; dst = 1; lo = 0; hi = 2; cost = 1. };
      { Min_cost_flow.src = 0; dst = 2; lo = 1; hi = 2; cost = 5. };
      { Min_cost_flow.src = 1; dst = 3; lo = 0; hi = 2; cost = 0. };
      { Min_cost_flow.src = 2; dst = 3; lo = 0; hi = 2; cost = 0. };
    ]
  in
  match
    Min_cost_flow.solve_bounded ~num_nodes:4 ~edges ~source:0 ~sink:3 ~flow_value:2
  with
  | Error e -> Alcotest.fail e
  | Ok (flows, cost) ->
      Alcotest.(check (array int)) "flows" [| 1; 1; 1; 1 |] flows;
      check_float "cost" 6. cost

let test_solve_bounded_infeasible () =
  let edges = [ { Min_cost_flow.src = 0; dst = 1; lo = 2; hi = 2; cost = 0. } ] in
  match
    Min_cost_flow.solve_bounded ~num_nodes:2 ~edges ~source:0 ~sink:1 ~flow_value:1
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "infeasible instance accepted"

let test_solve_bounded_exact_value () =
  (* flow_value below the max flow: exactly that much must be routed. *)
  let edges =
    [
      { Min_cost_flow.src = 0; dst = 1; lo = 0; hi = 5; cost = 1. };
      { Min_cost_flow.src = 1; dst = 2; lo = 0; hi = 5; cost = 1. };
    ]
  in
  match
    Min_cost_flow.solve_bounded ~num_nodes:3 ~edges ~source:0 ~sink:2 ~flow_value:3
  with
  | Error e -> Alcotest.fail e
  | Ok (flows, cost) ->
      Alcotest.(check (array int)) "flows" [| 3; 3 |] flows;
      check_float "cost" 6. cost

(* Regression (scale-aware SPFA relaxation): a mathematically zero-cost
   residual cycle (0.3 + 0.3 - 0.6) traversed at distance labels near 1e9
   rounds each lap to about -1.2e-7.  The old absolute [1e-12] margin saw
   that as a strict improvement and relaxed the cycle forever (SPFA
   livelock); the Fcmp-based comparison scales the margin with the labels
   and must terminate with the plain path cost. *)
let test_mcf_zero_cycle_large_labels () =
  let net = Min_cost_flow.create 5 in
  ignore (Min_cost_flow.add_edge net ~src:0 ~dst:1 ~cap:1 ~cost:1e9);
  ignore (Min_cost_flow.add_edge net ~src:1 ~dst:2 ~cap:1 ~cost:0.3);
  ignore (Min_cost_flow.add_edge net ~src:2 ~dst:3 ~cap:1 ~cost:0.3);
  ignore (Min_cost_flow.add_edge net ~src:3 ~dst:1 ~cap:1 ~cost:(-0.6));
  ignore (Min_cost_flow.add_edge net ~src:1 ~dst:4 ~cap:1 ~cost:1e9);
  let flow, cost = Min_cost_flow.min_cost_flow net ~source:0 ~sink:4 () in
  Alcotest.(check int) "flow" 1 flow;
  Alcotest.(check (float 1e-3)) "cost" 2e9 cost

let test_mcf_large_costs_vs_brute () =
  (* Assignment instances with costs around 1e9 against the brute-force
     oracle: relative rounding noise (~1e-7 per addition) must not derail
     the augmenting-path search. *)
  let g = Prng.create ~seed:7 () in
  for _ = 1 to 20 do
    let n = 1 + Prng.int g 4 in
    let cost =
      Array.init n (fun _ -> Array.init n (fun _ -> 1e9 +. Prng.float g 1e8))
    in
    let net = Min_cost_flow.create ((2 * n) + 2) in
    let source = 2 * n and sink = (2 * n) + 1 in
    for r = 0 to n - 1 do
      ignore (Min_cost_flow.add_edge net ~src:source ~dst:r ~cap:1 ~cost:0.)
    done;
    for c = 0 to n - 1 do
      ignore (Min_cost_flow.add_edge net ~src:(n + c) ~dst:sink ~cap:1 ~cost:0.)
    done;
    for r = 0 to n - 1 do
      for c = 0 to n - 1 do
        ignore
          (Min_cost_flow.add_edge net ~src:r ~dst:(n + c) ~cap:1
             ~cost:cost.(r).(c))
      done
    done;
    let flow, total = Min_cost_flow.min_cost_flow net ~source ~sink () in
    Alcotest.(check int) "perfect assignment" n flow;
    Alcotest.(check (float 1e-3)) "matches brute force"
      (brute_min_assignment cost) total
  done

(* ---------- Hopcroft-Karp ---------- *)

let test_hk_perfect () =
  let ml = Hopcroft_karp.max_matching ~n_left:3 ~n_right:3
      [ (0, 0); (0, 1); (1, 1); (2, 2) ]
  in
  Alcotest.(check int) "size" 3 (Hopcroft_karp.matching_size ml);
  Alcotest.(check bool) "perfect" true (Hopcroft_karp.is_perfect_left ml)

let test_hk_augmenting () =
  (* Greedy would fail without augmenting paths. *)
  let ml = Hopcroft_karp.max_matching ~n_left:2 ~n_right:2 [ (0, 0); (0, 1); (1, 0) ] in
  Alcotest.(check int) "size 2" 2 (Hopcroft_karp.matching_size ml)

let test_hk_vs_brute () =
  let g = Prng.create ~seed:4242 () in
  for _ = 1 to 30 do
    let nl = 1 + Prng.int g 5 and nr = 1 + Prng.int g 5 in
    let edges =
      List.concat_map
        (fun u ->
          List.filter_map
            (fun v -> if Prng.bool g then Some (u, v) else None)
            (List.init nr Fun.id))
        (List.init nl Fun.id)
    in
    let ml = Hopcroft_karp.max_matching ~n_left:nl ~n_right:nr edges in
    (* brute force via permutations of right vertices against subsets *)
    let best = ref 0 in
    let rec go u used count =
      if count + (nl - u) <= !best then ()
      else if u = nl then best := max !best count
      else begin
        go (u + 1) used count;
        List.iter
          (fun (u', v) ->
            if u' = u && not (List.mem v used) then go (u + 1) (v :: used) (count + 1))
          edges
      end
    in
    go 0 [] 0;
    Alcotest.(check int) "max matching size" !best (Hopcroft_karp.matching_size ml)
  done

let suite =
  [
    Alcotest.test_case "hungarian known instance" `Quick test_hungarian_known;
    Alcotest.test_case "hungarian vs brute force" `Quick test_hungarian_vs_brute;
    Alcotest.test_case "hungarian maximize" `Quick test_hungarian_maximize;
    Alcotest.test_case "hungarian rectangular" `Quick test_hungarian_rectangular;
    Alcotest.test_case "hungarian input validation" `Quick test_hungarian_errors;
    Alcotest.test_case "mcf simple path" `Quick test_mcf_simple_path;
    Alcotest.test_case "mcf cheap path first" `Quick test_mcf_prefers_cheap_path;
    Alcotest.test_case "mcf negative costs" `Quick test_mcf_negative_costs;
    Alcotest.test_case "mcf residual rerouting" `Quick test_mcf_residual_rerouting;
    Alcotest.test_case "mcf zero cycle at 1e9 labels" `Quick
      test_mcf_zero_cycle_large_labels;
    Alcotest.test_case "mcf large costs vs brute force" `Quick
      test_mcf_large_costs_vs_brute;
    Alcotest.test_case "bounded forced edge" `Quick test_solve_bounded_forced_edge;
    Alcotest.test_case "bounded infeasible" `Quick test_solve_bounded_infeasible;
    Alcotest.test_case "bounded exact value" `Quick test_solve_bounded_exact_value;
    Alcotest.test_case "hopcroft-karp perfect" `Quick test_hk_perfect;
    Alcotest.test_case "hopcroft-karp augmenting" `Quick test_hk_augmenting;
    Alcotest.test_case "hopcroft-karp vs brute force" `Quick test_hk_vs_brute;
    Alcotest.test_case "hungarian tie-heavy vs brute" `Quick test_hungarian_tie_heavy;
    Alcotest.test_case "hungarian polls the deadline" `Quick test_hungarian_deadline;
    Alcotest.test_case "hungarian price validation" `Quick
      test_hungarian_prices_validation;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261020 |]))
      [ prop_random_vs_reference; prop_tie_heavy_vs_reference; prop_footrule_vs_reference ]
