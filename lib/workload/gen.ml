open Consensus_util
open Consensus_anxor

let distinct_scores rng n =
  let scores = Array.init n (fun _ -> Prng.float rng 1000.) in
  (* Perturb duplicates deterministically: sort indices by score and nudge
     collisions apart. *)
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> Float.compare scores.(i) scores.(j)) order;
  for idx = 1 to n - 1 do
    let prev = order.(idx - 1) and cur = order.(idx) in
    if scores.(cur) <= scores.(prev) then
      scores.(cur) <- scores.(prev) +. 1e-6 +. Prng.float rng 1e-6
  done;
  scores

let independent_db ?(p_min = 0.05) ?(p_max = 0.95) rng n =
  if n <= 0 then invalid_arg "Gen.independent_db: n must be positive";
  let scores = distinct_scores rng n in
  Db.independent
    (List.init n (fun i ->
         (i, scores.(i), p_min +. Prng.float rng (p_max -. p_min))))

(* [n] xor blocks of 1..[max_alts] alternatives, as (probability, score)
   lists; a [forced_fraction] of the blocks have mass 1. *)
let bid_blocks ~max_alts ~forced_fraction rng n =
  let total_alts = ref 0 in
  let alts_per_key = Array.init n (fun _ -> 1 + Prng.int rng max_alts) in
  Array.iter (fun c -> total_alts := !total_alts + c) alts_per_key;
  let scores = distinct_scores rng !total_alts in
  let next_score = ref 0 in
  List.init n (fun key ->
      let c = alts_per_key.(key) in
      let forced = Prng.uniform rng < forced_fraction in
      let raw = Array.init c (fun _ -> 0.05 +. Prng.uniform rng) in
      let total = Array.fold_left ( +. ) 0. raw in
      let budget = if forced then 1.0 else 0.2 +. Prng.float rng 0.75 in
      List.init c (fun i ->
          let p = raw.(i) /. total *. budget in
          let s = scores.(!next_score) in
          incr next_score;
          (p, s)))

let bid_db ?(max_alts = 3) ?(forced_fraction = 0.2) rng n =
  if n <= 0 then invalid_arg "Gen.bid_db: n must be positive";
  Db.bid
    (List.mapi (fun key alts -> (key, alts))
       (bid_blocks ~max_alts ~forced_fraction rng n))

let xtuple_db ?(max_alts = 3) ?(forced_fraction = 0.2) rng n =
  if n <= 0 then invalid_arg "Gen.xtuple_db: n must be positive";
  let next_key = ref (-1) in
  Db.create
    (Tree.bid
       (List.map
          (List.map (fun (p, value) ->
               incr next_key;
               (p, { Db.key = !next_key; value })))
          (bid_blocks ~max_alts ~forced_fraction rng n)))

let random_tree ?(max_depth = 6) ?(max_fanout = 4) rng n =
  if n <= 0 then invalid_arg "Gen.random_tree: n must be positive";
  let scores = distinct_scores rng n in
  let next = ref 0 in
  let fresh_leaf () =
    let i = !next in
    incr next;
    Tree.leaf { Db.key = i; value = scores.(i) }
  in
  (* Split the leaf budget among a random number of children. *)
  let split rng budget parts =
    let cuts = Array.make parts 1 in
    for _ = 1 to budget - parts do
      let i = Prng.int rng parts in
      cuts.(i) <- cuts.(i) + 1
    done;
    Array.to_list cuts
  in
  let rec build depth budget =
    if budget = 1 || depth >= max_depth then
      if budget = 1 then fresh_leaf ()
      else
        (* Flat node holding the remaining leaves. *)
        if Prng.bool rng then Tree.and_ (List.init budget (fun _ -> fresh_leaf ()))
        else
          let raw = Array.init budget (fun _ -> 0.05 +. Prng.uniform rng) in
          let total = Array.fold_left ( +. ) 0. raw in
          let budget_p = 0.3 +. Prng.float rng 0.65 in
          Tree.xor
            (List.init budget (fun i ->
                 (raw.(i) /. total *. budget_p, fresh_leaf ())))
    else
      let parts = 1 + Prng.int rng (min max_fanout budget) in
      let budgets = split rng budget parts in
      let children = List.map (fun b -> build (depth + 1) b) budgets in
      if Prng.bool rng then Tree.and_ children
      else begin
        (* Random sub-stochastic edge probabilities. *)
        let raw = List.map (fun c -> (0.05 +. Prng.uniform rng, c)) children in
        let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. raw in
        let budget_p = 0.3 +. Prng.float rng 0.7 in
        Tree.xor (List.map (fun (p, c) -> (p /. total *. budget_p, c)) raw)
      end
  in
  build 0 n

let random_tree_db ?max_depth ?max_fanout rng n =
  Db.create (random_tree ?max_depth ?max_fanout rng n)

let random_keyed_tree ?max_depth ?max_fanout rng n =
  let t = random_tree ?max_depth ?max_fanout rng n in
  (* Remap keys while preserving the key constraint by construction: every
     leaf gets a fresh key, except that an xor node whose children are all
     leaves merges them under one shared key with probability 1/2 (those
     leaves are mutually exclusive, so their LCA is the xor node itself). *)
  let counter = ref (-1) in
  let rec remap (t : Db.alt Tree.t) : Db.alt Tree.t =
    match t with
    | Tree.Leaf a ->
        incr counter;
        Tree.leaf { a with Db.key = !counter }
    | Tree.And cs -> Tree.and_ (List.map remap cs)
    | Tree.Xor es ->
        let all_leaves =
          List.for_all (fun (_, c) -> match c with Tree.Leaf _ -> true | _ -> false) es
        in
        if all_leaves && List.length es > 1 && Prng.bool rng then begin
          incr counter;
          let k = !counter in
          Tree.xor
            (List.map
               (fun (p, c) ->
                 match c with
                 | Tree.Leaf a -> (p, Tree.leaf { a with Db.key = k })
                 | _ -> assert false)
               es)
        end
        else Tree.xor (List.map (fun (p, c) -> (p, remap c)) es)
  in
  Db.create (remap t)

let zipf_weights s m =
  if m <= 0 then invalid_arg "Gen.zipf_weights: m must be positive";
  let w = Array.init m (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  Array.map (fun v -> v /. total) w

let groupby_matrix ?(zipf = 1.0) rng ~n ~m =
  if n <= 0 || m <= 0 then invalid_arg "Gen.groupby_matrix: dimensions must be positive";
  let popularity = zipf_weights zipf m in
  Array.init n (fun _ ->
      let support_size = 1 + Prng.int rng (min 4 m) in
      let support =
        List.init support_size (fun _ -> Prng.categorical rng popularity)
        |> List.sort_uniq compare
      in
      let row = Array.make m 0. in
      let weights = List.map (fun g -> (g, 0.1 +. Prng.uniform rng)) support in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. weights in
      List.iter (fun (g, w) -> row.(g) <- w /. total) weights;
      row)

let clustering_db ?(num_values = 5) ?(max_alts = 3) rng n =
  if n <= 0 then invalid_arg "Gen.clustering_db: n must be positive";
  let blocks =
    List.init n (fun key ->
        let c = 1 + Prng.int rng max_alts in
        let values = Prng.sample_distinct rng (min c num_values) num_values in
        let raw = List.map (fun v -> (0.1 +. Prng.uniform rng, float_of_int v)) values in
        let total = List.fold_left (fun acc (p, _) -> acc +. p) 0. raw in
        let budget = if Prng.bool rng then 1.0 else 0.3 +. Prng.float rng 0.65 in
        (key, List.map (fun (p, v) -> (p /. total *. budget, v)) raw))
  in
  Db.bid blocks

let max2sat rng ~num_vars ~num_clauses =
  if num_vars < 2 then invalid_arg "Gen.max2sat: need at least 2 variables";
  Array.init num_clauses (fun _ ->
      let v1 = Prng.int rng num_vars in
      let v2 = (v1 + 1 + Prng.int rng (num_vars - 1)) mod num_vars in
      [ (v1, Prng.bool rng); (v2, Prng.bool rng) ])

(* ---------- small enumerable instances (oracle / fuzzing) ----------

   Everything below stays within an explicit leaf budget so exhaustive
   possible-world enumeration (lib/oracle) is feasible, and draws all
   randomness from the explicit [rng] — bit-reproducible from the seed. *)

let small_db rng ~max_leaves =
  if max_leaves <= 0 then invalid_arg "Gen.small_db: max_leaves must be positive";
  match Prng.int rng 3 with
  | 0 -> independent_db rng (1 + Prng.int rng max_leaves)
  | 1 ->
      let keys = 1 + Prng.int rng (max 1 (max_leaves / 2)) in
      let max_alts = max 1 (min 3 (max_leaves / keys)) in
      bid_db ~max_alts rng keys
  | _ -> random_keyed_tree ~max_depth:4 rng (1 + Prng.int rng max_leaves)

let small_clustering_db ?(num_values = 4) rng ~max_keys ~max_leaves =
  if max_keys <= 0 || max_leaves < max_keys then
    invalid_arg "Gen.small_clustering_db: need max_leaves >= max_keys >= 1";
  let keys = 1 + Prng.int rng max_keys in
  let max_alts = max 1 (min 3 (max_leaves / keys)) in
  clustering_db ~num_values ~max_alts rng keys

let small_matrix rng ~max_tuples ~max_groups =
  if max_tuples <= 0 || max_groups <= 0 then
    invalid_arg "Gen.small_matrix: dimensions must be positive";
  groupby_matrix rng ~n:(1 + Prng.int rng max_tuples)
    ~m:(1 + Prng.int rng max_groups)
