open Consensus_anxor
open Consensus_poly

type t = {
  db : Db.t;
  group : Db.alt -> int;
  m : int;
  mean : float array;
  variance : float;
}

let compute_mean db group m =
  let r = Array.make m 0. in
  for l = 0 to Db.num_alts db - 1 do
    let v = group (Db.alt db l) in
    r.(v) <- r.(v) +. Db.marginal db l
  done;
  r

(* Var(r_v) = Σ_{i,j in group v} (Pr(i ∧ j) - Pr(i)·Pr(j)); the diagonal
   term is Pr(i)(1 - Pr(i)).  Exact under arbitrary correlation. *)
let compute_variance db group m =
  let members = Array.make m [] in
  for l = 0 to Db.num_alts db - 1 do
    let v = group (Db.alt db l) in
    members.(v) <- l :: members.(v)
  done;
  let acc = ref 0. in
  Array.iter
    (fun leaves ->
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              let joint = Db.pair_marginal db i j in
              acc := !acc +. (joint -. (Db.marginal db i *. Db.marginal db j)))
            leaves)
        leaves)
    members;
  !acc

let make db ~group ~num_groups =
  if num_groups <= 0 then invalid_arg "Aggregate_tree.make: num_groups must be positive";
  for l = 0 to Db.num_alts db - 1 do
    let v = group (Db.alt db l) in
    if v < 0 || v >= num_groups then
      invalid_arg "Aggregate_tree.make: group label out of range"
  done;
  {
    db;
    group;
    m = num_groups;
    mean = compute_mean db group num_groups;
    variance = compute_variance db group num_groups;
  }

let db t = t.db
let num_groups t = t.m
let mean t = Array.copy t.mean
let variance t = t.variance

let expected_sq_dist t c =
  if Array.length c <> t.m then
    invalid_arg "Aggregate_tree.expected_sq_dist: dimension mismatch";
  let bias = ref 0. in
  Array.iteri (fun v cv -> bias := !bias +. ((cv -. t.mean.(v)) ** 2.)) c;
  !bias +. t.variance

let counts_of_world t world =
  let r = Array.make t.m 0. in
  List.iter (fun a -> r.(t.group a) <- r.(t.group a) +. 1.) world;
  r

let median_sampled rng ~samples t =
  if samples <= 0 then invalid_arg "Aggregate_tree.median_sampled: samples must be positive";
  let best = ref None in
  for _ = 1 to samples do
    let world = Worlds.sample rng (Db.arena t.db) |> List.map (Db.alt t.db) in
    let c = counts_of_world t world in
    let d = expected_sq_dist t c in
    match !best with
    | Some (_, bd) when bd <= d -> ()
    | _ -> best := Some (c, d)
  done;
  fst (Option.get !best)

let brute_force_median t =
  Worlds.enumerate (Db.tree t.db)
  |> List.fold_left
       (fun acc (p, w) ->
         if p <= 0. then acc
         else
           let c = counts_of_world t w in
           let d = expected_sq_dist t c in
           match acc with
           | Some (_, bd) when bd <= d -> acc
           | _ -> Some (c, d))
       None
  |> Option.get

let joint_distribution t =
  Genfunc.mpoly (fun l -> Mpoly.var (t.group (Db.alt t.db l))) (Db.arena t.db)
