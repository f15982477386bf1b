open Consensus_anxor
module Api = Consensus.Api
module Topk_list = Consensus_ranking.Topk_list

(* Brute-force budget: candidate-space * world-space products above this
   are rejected by [solvable]/[solve] rather than ground the fuzz loop. *)
let ops_budget = 40_000_000

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

type world = { p : float; mask : int; alts : Db.alt list }

type rank_tables = {
  pos : float array array;
      (* pos.(kp).(r-1) = Pr(rank of key kp = r), r = 1..nk; index nk = absent *)
  dis : float array array;
      (* dis.(a).(b) = Pr(ordering key a before key b disagrees with the world) *)
}

type t = {
  db : Db.t;
  n : int;
  keys : int array;
  kpos : (int, int) Hashtbl.t;
  worlds : world array;
  topk_cache : (int, Topk_list.t array) Hashtbl.t;
  mutable rank_cache : rank_tables option;
  mutable cooc_cache : float array array option;
}

let default_max_leaves = 18

let prepare ?(max_leaves = default_max_leaves) db =
  let n = Db.num_alts db in
  if max_leaves > 24 then
    invalid_arg "Exact.prepare: max_leaves above 24 is not supported";
  if n > max_leaves then
    invalid_arg
      (Printf.sprintf "Exact.prepare: %d leaves exceeds the oracle budget (%d)"
         n max_leaves);
  let tbl = Hashtbl.create 1024 in
  Worlds.fold (fst (Tree.index (Db.tree db))) ~init:() ~f:(fun () p ids ->
      if p > 0. then begin
        let mask = List.fold_left (fun m i -> m lor (1 lsl i)) 0 ids in
        Hashtbl.replace tbl mask
          (p +. Option.value (Hashtbl.find_opt tbl mask) ~default:0.)
      end);
  let worlds =
    Hashtbl.fold (fun mask p acc -> (mask, p) :: acc) tbl []
    |> List.sort (fun (m1, _) (m2, _) -> compare m1 m2)
    |> List.map (fun (mask, p) ->
           let alts =
             List.init n Fun.id
             |> List.filter_map (fun i ->
                    if mask land (1 lsl i) <> 0 then Some (Db.alt db i) else None)
           in
           { p; mask; alts })
    |> Array.of_list
  in
  let keys = Db.keys db in
  let kpos = Hashtbl.create (Array.length keys) in
  Array.iteri (fun i k -> Hashtbl.replace kpos k i) keys;
  {
    db;
    n;
    keys;
    kpos;
    worlds;
    topk_cache = Hashtbl.create 4;
    rank_cache = None;
    cooc_cache = None;
  }

let db t = t.db
let num_worlds t = Array.length t.worlds
let total_probability t = Array.fold_left (fun acc w -> acc +. w.p) 0. t.worlds

let marginal t i =
  Array.fold_left
    (fun acc w -> if w.mask land (1 lsl i) <> 0 then acc +. w.p else acc)
    0. t.worlds

let kpos t key = Hashtbl.find t.kpos key

(* ---------- per-family world projections (memoized) ---------- *)

let topk_lists t ~k =
  match Hashtbl.find_opt t.topk_cache k with
  | Some a -> a
  | None ->
      let a = Array.map (fun w -> Topk_list.of_world ~k w.alts) t.worlds in
      Hashtbl.add t.topk_cache k a;
      a

let world_labels t (w : world) =
  let nk = Array.length t.keys in
  let labels = Array.make nk (-1) in
  let class_of = Hashtbl.create 8 in
  let next = ref 0 in
  List.iter
    (fun (a : Db.alt) ->
      let l =
        match Hashtbl.find_opt class_of a.value with
        | Some l -> l
        | None ->
            let l = !next in
            incr next;
            Hashtbl.add class_of a.value l;
            l
      in
      labels.(kpos t a.key) <- l)
    w.alts;
  labels

let rank_tables t =
  match t.rank_cache with
  | Some r -> r
  | None ->
      let nk = Array.length t.keys in
      let pos = Array.make_matrix nk (nk + 1) 0. in
      let dis = Array.make_matrix nk nk 0. in
      Array.iter
        (fun w ->
          let wpos = Array.make nk 0 (* 0 = absent *) in
          let sorted =
            List.sort (fun (a : Db.alt) b -> Float.compare b.value a.value) w.alts
          in
          List.iteri (fun i (a : Db.alt) -> wpos.(kpos t a.key) <- i + 1) sorted;
          Array.iteri
            (fun kp r ->
              let idx = if r = 0 then nk else r - 1 in
              pos.(kp).(idx) <- pos.(kp).(idx) +. w.p)
            wpos;
          for a = 0 to nk - 1 do
            for b = 0 to nk - 1 do
              if a <> b then begin
                let ra = wpos.(a) and rb = wpos.(b) in
                if (ra > 0 && rb > 0 && rb < ra) || (ra = 0 && rb > 0) then
                  dis.(a).(b) <- dis.(a).(b) +. w.p
              end
            done
          done)
        t.worlds;
      let r = { pos; dis } in
      t.rank_cache <- Some r;
      r

let cooc t =
  match t.cooc_cache with
  | Some m -> m
  | None ->
      let nk = Array.length t.keys in
      let m = Array.make_matrix nk nk 0. in
      Array.iter
        (fun w ->
          let l = world_labels t w in
          for i = 0 to nk - 1 do
            for j = i + 1 to nk - 1 do
              if l.(i) = l.(j) then m.(i).(j) <- m.(i).(j) +. w.p
            done
          done)
        t.worlds;
      t.cooc_cache <- Some m;
      m

(* ---------- distances ---------- *)

let jaccard_masks m1 m2 =
  let union = popcount (m1 lor m2) in
  if union = 0 then 0.
  else float_of_int (popcount (m1 lxor m2)) /. float_of_int union

let expected_world_dist t metric cmask =
  let dist =
    match (metric : Api.set_metric) with
    | Api.Set_sym_diff -> fun w -> float_of_int (popcount (cmask lxor w.mask))
    | Api.Set_jaccard -> fun w -> jaccard_masks cmask w.mask
  in
  Array.fold_left (fun acc w -> acc +. (w.p *. dist w)) 0. t.worlds

let expected_topk_dist t ~k metric tau =
  let lists = topk_lists t ~k in
  let acc = ref 0. in
  Array.iteri
    (fun i l ->
      acc := !acc +. (t.worlds.(i).p *. Consensus.Topk_consensus.eval_metric metric ~k tau l))
    lists;
  !acc

let expected_rank_footrule t sigma =
  let nk = Array.length t.keys in
  let { pos; _ } = rank_tables t in
  let acc = ref 0. in
  Array.iteri
    (fun i key ->
      let kp = kpos t key in
      for idx = 0 to nk do
        let r = if idx = nk then nk + 1 else idx + 1 in
        acc := !acc +. (pos.(kp).(idx) *. float_of_int (abs (i + 1 - r)))
      done)
    sigma;
  !acc

let expected_rank_kendall t sigma =
  let { dis; _ } = rank_tables t in
  let acc = ref 0. in
  let n = Array.length sigma in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      acc := !acc +. dis.(kpos t sigma.(a)).(kpos t sigma.(b))
    done
  done;
  !acc

let expected_clustering t c =
  let m = cooc t in
  let nk = Array.length t.keys in
  let acc = ref 0. in
  for i = 0 to nk - 1 do
    for j = i + 1 to nk - 1 do
      acc := !acc +. (if c.(i) = c.(j) then 1. -. m.(i).(j) else m.(i).(j))
    done
  done;
  !acc

(* ---------- aggregates (matrix instances) ---------- *)

let max_assignments = 200_000

let aggregate_dims probs =
  let n = Array.length probs in
  if n = 0 then invalid_arg "Exact: empty aggregate instance";
  (n, Array.length probs.(0))

let aggregate_solvable probs =
  let n, m = aggregate_dims probs in
  m > 0 && float_of_int m ** float_of_int n <= float_of_int max_assignments

let aggregate_worlds probs =
  if not (aggregate_solvable probs) then
    invalid_arg "Exact: aggregate instance exceeds the assignment budget";
  let n, m = aggregate_dims probs in
  let tbl = Hashtbl.create 256 in
  let counts = Array.make m 0 in
  let rec go i p =
    if p = 0. then ()
    else if i = n then begin
      let key = Array.to_list counts in
      Hashtbl.replace tbl key
        (p +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)
    end
    else
      for g = 0 to m - 1 do
        counts.(g) <- counts.(g) + 1;
        go (i + 1) (p *. probs.(i).(g));
        counts.(g) <- counts.(g) - 1
      done
  in
  go 0 1.;
  Hashtbl.fold
    (fun key p acc -> (Array.of_list (List.map float_of_int key), p) :: acc)
    tbl []
  |> List.sort compare

let sq_dist c r =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. ((x -. r.(i)) *. (x -. r.(i)))) c;
  !acc

let expected_aggregate probs c =
  aggregate_worlds probs
  |> List.fold_left (fun acc (r, p) -> acc +. (p *. sq_dist c r)) 0.

let solve_aggregate probs flavor =
  let worlds = aggregate_worlds probs in
  let expected c =
    List.fold_left (fun acc (r, p) -> acc +. (p *. sq_dist c r)) 0. worlds
  in
  match (flavor : Api.flavor) with
  | Api.Mean ->
      (* The unrestricted argmin over real vectors is the expected count
         vector (calculus on the decomposed quadratic). *)
      let _, m = aggregate_dims probs in
      let mean = Array.make m 0. in
      List.iter
        (fun (r, p) -> Array.iteri (fun i x -> mean.(i) <- mean.(i) +. (p *. x)) r)
        worlds;
      (mean, expected mean)
  | Api.Median ->
      List.fold_left
        (fun acc (r, _) ->
          let d = expected r in
          match acc with Some (_, bd) when bd <= d -> acc | _ -> Some (r, d))
        None worlds
      |> Option.get

(* ---------- candidate spaces ---------- *)

let rec arrangements pool len =
  if len = 0 then [ [] ]
  else
    List.concat_map
      (fun x ->
        List.map
          (fun rest -> x :: rest)
          (arrangements (List.filter (fun y -> y <> x) pool) (len - 1)))
      pool

let num_arrangements nk len =
  let rec go i acc = if i = len then acc else go (i + 1) (acc * (nk - i)) in
  go 0 1

(* Set partitions as restricted-growth strings. *)
let partitions n =
  if n = 0 then []
  else
    let rec go i maxl acc =
      if i = n then [ Array.of_list (List.rev acc) ]
      else
        List.concat_map
          (fun l -> go (i + 1) (max maxl l) (l :: acc))
          (List.init (maxl + 2) Fun.id)
    in
    go 1 0 [ 0 ]

let dedup_arrays lists =
  let tbl = Hashtbl.create 64 in
  List.filter
    (fun a ->
      if Hashtbl.mem tbl a then false
      else begin
        Hashtbl.add tbl a ();
        true
      end)
    lists

(* ---------- answers ---------- *)

type answer =
  | World of int list
  | Topk of int array
  | Rank of int array
  | Counts of float array
  | Clustering of int array

let of_api : Api.answer -> answer = function
  | Api.World_answer { leaves; _ } -> World leaves
  | Api.Topk_answer { keys; _ } -> Topk keys
  | Api.Rank_answer { keys; _ } -> Rank keys
  | Api.Aggregate_answer { counts; _ } -> Counts counts
  | Api.Cluster_answer { labels; _ } -> Clustering labels

let mask_of_ids ids = List.fold_left (fun m i -> m lor (1 lsl i)) 0 ids

let ids_of_mask n mask =
  List.init n Fun.id |> List.filter (fun i -> mask land (1 lsl i) <> 0)

let expected t (q : Api.query) answer =
  match (q, answer) with
  | Api.World (metric, _), World ids ->
      expected_world_dist t metric (mask_of_ids ids)
  | Api.Topk (k, metric, _), Topk tau -> expected_topk_dist t ~k metric tau
  | Api.Rank Api.Rank_footrule, Rank sigma -> expected_rank_footrule t sigma
  | Api.Rank Api.Rank_kendall, Rank sigma -> expected_rank_kendall t sigma
  | Api.Aggregate (probs, _), Counts c -> expected_aggregate probs c
  | Api.Cluster _, Clustering c -> expected_clustering t c
  | _ -> invalid_arg "Exact.expected: answer does not match the query family"

(* The metrics an answer's [expected] list reports are the target metrics of
   its sibling queries: both set metrics for a world, all four top-k
   metrics, and the one optimized metric elsewhere. *)
let expected_all t (q : Api.query) answer =
  let queries =
    match q with
    | Api.World (_, f) ->
        [ Api.World (Api.Set_sym_diff, f); Api.World (Api.Set_jaccard, f) ]
    | Api.Topk (k, _, f) ->
        List.map
          (fun m -> Api.Topk (k, m, f))
          [ Api.Sym_diff; Api.Intersection; Api.Footrule; Api.Kendall ]
    | Api.Rank _ | Api.Aggregate _ | Api.Cluster _ -> [ q ]
  in
  List.map (fun q -> (Api.target_metric q, expected t q answer)) queries

let nk t = Array.length t.keys

let solvable t (q : Api.query) =
  let worlds = num_worlds t in
  match q with
  | Api.World (_, Api.Mean) ->
      t.n <= 16 && (1 lsl t.n) * max 1 worlds <= ops_budget
  | Api.World (_, Api.Median) -> worlds * worlds <= ops_budget
  | Api.Topk (k, _, Api.Mean) ->
      let len = min k (nk t) in
      let cands = num_arrangements (nk t) len in
      cands <= 20_000 && cands * max 1 worlds * (len + 1) * (len + 1) <= ops_budget
  | Api.Topk (k, _, Api.Median) ->
      worlds * worlds * (k + 1) * (k + 1) <= ops_budget
  | Api.Rank _ -> nk t <= 8
  | Api.Cluster _ -> nk t <= 9
  | Api.Aggregate (probs, _) -> aggregate_solvable probs

let argmin eval = function
  | [] -> invalid_arg "Exact.solve: empty candidate space"
  | c0 :: rest ->
      List.fold_left
        (fun ((_, bd) as best) c ->
          let d = eval c in
          if d < bd then (c, d) else best)
        (c0, eval c0) rest

let solve t (q : Api.query) =
  if not (solvable t q) then
    invalid_arg "Exact.solve: instance exceeds the brute-force budget";
  match q with
  | Api.Aggregate (probs, flavor) ->
      let c, d = solve_aggregate probs flavor in
      (Counts c, d)
  | Api.World (metric, flavor) ->
      let candidates =
        match flavor with
        | Api.Mean -> List.init (1 lsl t.n) Fun.id
        | Api.Median -> Array.to_list t.worlds |> List.map (fun w -> w.mask)
      in
      let mask, d =
        argmin (expected_world_dist t metric) (List.sort_uniq compare candidates)
      in
      (World (ids_of_mask t.n mask), d)
  | Api.Topk (k, metric, flavor) ->
      let candidates =
        match flavor with
        | Api.Mean ->
            (* The mean answer space is the lists of exactly k keys (§3.4,
               §5); shorter lists are worlds' answers, median-only. *)
            arrangements (Array.to_list t.keys) (min k (nk t))
            |> List.map Array.of_list
        | Api.Median -> dedup_arrays (Array.to_list (topk_lists t ~k))
      in
      let tau, d = argmin (expected_topk_dist t ~k metric) candidates in
      (Topk tau, d)
  | Api.Rank metric ->
      let eval =
        match metric with
        | Api.Rank_footrule -> expected_rank_footrule t
        | Api.Rank_kendall -> expected_rank_kendall t
      in
      let sigma, d =
        argmin eval (arrangements (Array.to_list t.keys) (nk t) |> List.map Array.of_list)
      in
      (Rank sigma, d)
  | Api.Cluster _ ->
      let c, d = argmin (expected_clustering t) (partitions (nk t)) in
      (Clustering c, d)
