open Consensus_anxor
module Aggregation = Consensus_ranking.Aggregation
module Hungarian = Consensus_matching.Hungarian
module Pool = Consensus_engine.Pool
module Obs = Consensus_obs.Obs
module Cache = Consensus_cache.Cache

let algo_span name ~n f =
  Obs.with_span
    ~attrs:(fun () -> [ ("keys", Obs.Int n) ])
    ("core.rank." ^ name)
    f

type ctx = {
  db : Db.t;
  pool : Pool.t; (* engine pool shared by every computation on this ctx *)
  keys : int array;
  present : float array;
  (* full positional distribution per key index: full.(t).(j-1) = Pr(r = j);
     built on first use — only the footrule reads it *)
  mutable full : float array array option;
  mutable dis : float array array option; (* dis.(i).(j) = cost of i before j *)
}

let make_ctx ?pool db =
  if not (Db.scores_distinct db) then
    invalid_arg "Rank_consensus.make_ctx: scores must be pairwise distinct";
  algo_span "make_ctx" ~n:(Array.length (Db.keys db)) @@ fun () ->
  let pool = Pool.resolve pool in
  let keys = Db.keys db in
  let present = Array.map (Db.key_marginal db) keys in
  { db; pool; keys; present; full = None; dis = None }

(* Callers fill the table before fanning out over the pool: a lazy fill
   from inside worker domains would race on [ctx.full]. *)
let full_rank_table ctx =
  match ctx.full with
  | Some t -> t
  | None ->
      let t =
        algo_span "full_rank_table" ~n:(Array.length ctx.keys) @@ fun () ->
        Marginals.full_rank_table ~pool:ctx.pool ctx.db
      in
      ctx.full <- Some t;
      t

let db ctx = ctx.db
let pool ctx = ctx.pool
let keys ctx = Array.copy ctx.keys

let kidx ctx key =
  match Db.key_index ctx.db key with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Rank_consensus: unknown key %d" key)

let n_keys ctx = Array.length ctx.keys

let check_perm ctx sigma =
  let n = n_keys ctx in
  if Array.length sigma <> n then
    invalid_arg "Rank_consensus: answer must rank every key";
  let seen = Array.make n false in
  Array.iter
    (fun key ->
      let i = kidx ctx key in
      if seen.(i) then invalid_arg "Rank_consensus: duplicate key in answer";
      seen.(i) <- true)
    sigma

(* Positional cost of placing key index [t] at position [pos] (1-based):
   E|pos - pos_pw(t)| with absent tuples at position n+1.  The definition,
   O(n) per cell; [footrule_cost_row] builds a whole row in O(n). *)
let position_cost_idx ctx full t pos =
  let n = n_keys ctx in
  let dist = full.(t) in
  let acc = ref ((1. -. ctx.present.(t)) *. float_of_int (n + 1 - pos)) in
  for m = 0 to Array.length dist - 1 do
    let p = dist.(m) in
    if p <> 0. then acc := !acc +. (p *. float_of_int (abs (pos - (m + 1))))
  done;
  !acc

let position_cost ctx key pos =
  if pos < 1 || pos > n_keys ctx then
    invalid_arg "Rank_consensus.position_cost: position out of range";
  position_cost_idx ctx (full_rank_table ctx) (kidx ctx key) pos

let expected_footrule ctx sigma =
  check_perm ctx sigma;
  let full = full_rank_table ctx in
  let acc = ref 0. in
  Array.iteri
    (fun pos0 key ->
      acc := !acc +. position_cost_idx ctx full (kidx ctx key) (pos0 + 1))
    sigma;
  !acc

(* Row [t] of the footrule cost matrix, row.(pos - 1) = position_cost t pos,
   in O(n).  Moving from [pos] to [pos + 1] brings every world rank beyond
   [pos], and the absent position n+1, one closer, and takes every rank at
   or before [pos] one further away: the cost changes by
   2·Pr(r ≤ pos) − Σ_m Pr(r = m) − Pr(absent), which is 2·Pr(r ≤ pos) − 1
   when the row sums to the presence marginal.  Rank rows hold at least n
   entries (every key has an alternative). *)
let footrule_cost_row ctx full t =
  let n = n_keys ctx in
  let dist = full.(t) in
  let mass = ref 0. in
  for m = 0 to Array.length dist - 1 do
    mass := !mass +. dist.(m)
  done;
  let step = !mass +. (1. -. ctx.present.(t)) in
  let row = Array.make n (position_cost_idx ctx full t 1) in
  let below = ref 0. in
  for pos = 1 to n - 1 do
    below := !below +. dist.(pos - 1);
    row.(pos) <- row.(pos - 1) +. ((2. *. !below) -. step)
  done;
  row

let footrule_costs ctx =
  let full = full_rank_table ctx in
  Pool.parallel_init ~pool:ctx.pool ~stage:"footrule_cost" (n_keys ctx)
    (footrule_cost_row ctx full)

let disagreement_matrix ctx =
  match ctx.dis with
  | Some w -> w
  | None ->
      let n = n_keys ctx in
      algo_span "disagreement_matrix" ~n @@ fun () ->
      let compute () =
        Pool.parallel_init ~pool:ctx.pool ~stage:"disagreement" n (fun i ->
            Array.init n (fun j ->
                if i = j then 0.
                else
                  (* i before j disagrees iff j is present and not beaten
                     by i. *)
                  ctx.present.(j)
                  -. Marginals.beats_present ctx.db ctx.keys.(i) ctx.keys.(j)))
      in
      let w =
        Cache.memo Cache.Matrix ~family:"rank_disagreement"
          ~digest:(fun () -> Db.digest ctx.db)
          ~params:[] compute
      in
      ctx.dis <- Some w;
      w

let expected_kendall ctx sigma =
  check_perm ctx sigma;
  let w = disagreement_matrix ctx in
  let n = n_keys ctx in
  let acc = ref 0. in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      acc := !acc +. w.(kidx ctx sigma.(a)).(kidx ctx sigma.(b))
    done
  done;
  !acc

let mean_footrule ctx =
  let n = n_keys ctx in
  algo_span "mean_footrule" ~n @@ fun () ->
  let assignment, total = Hungarian.minimize (footrule_costs ctx) in
  let sigma = Array.make n 0 in
  Array.iteri (fun t pos -> sigma.(pos) <- ctx.keys.(t)) assignment;
  (sigma, total)

(* The Kemeny-style preference matrix consumed by [Aggregation]: its cost
   function charges pref.(later).(earlier), so pref.(a).(b) must be the
   cost of ordering b before a. *)
let pref_matrix ctx =
  let w = disagreement_matrix ctx in
  let n = n_keys ctx in
  Array.init n (fun a -> Array.init n (fun b -> w.(b).(a)))

let order_to_keys ctx order = Array.map (fun i -> ctx.keys.(i)) order

let mean_kendall_pivot rng ?(trials = 8) ctx =
  algo_span "mean_kendall_pivot" ~n:(n_keys ctx) @@ fun () ->
  let pref = pref_matrix ctx in
  let order, _ = Aggregation.best_pivot_of rng ~trials pref in
  let order, cost = Aggregation.local_search pref order in
  (order_to_keys ctx order, cost)

let mean_kendall_exact ctx =
  algo_span "mean_kendall_exact" ~n:(n_keys ctx) @@ fun () ->
  let pref = pref_matrix ctx in
  let order, cost = Aggregation.kemeny_exact pref in
  (order_to_keys ctx order, cost)
