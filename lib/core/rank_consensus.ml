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
   O(n) per cell; [fill_footrule_row] builds a whole row in O(n). *)
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
   2·Pr(r ≤ pos) − step, where step = Σ_m Pr(r = m) + Pr(absent) is 1 when
   the row sums to the presence marginal.  Rank rows hold at least n
   entries (every key has an alternative).  [first] and [step] hold each
   key's cost at position 1 and its step ([footrule_heads]). *)
let fill_footrule_row full ~first ~step t row =
  let n = Array.length row and dist = full.(t) and step = step.(t) in
  if Array.length dist < n - 1 then invalid_arg "Rank_consensus: short rank row";
  let cost = ref first.(t) and below = ref 0. in
  row.(0) <- !cost;
  (* pos < n ≤ length dist + 1 and length row = n, so the reads and
     writes are in bounds. *)
  for pos = 1 to n - 1 do
    below := !below +. Array.unsafe_get dist (pos - 1);
    cost := !cost +. ((2. *. !below) -. step);
    Array.unsafe_set row pos !cost
  done

let footrule_heads ctx full =
  let n = n_keys ctx in
  let first = Array.init n (fun t -> position_cost_idx ctx full t 1) in
  let step =
    Array.init n (fun t ->
        let dist = full.(t) in
        let mass = ref 0. in
        for m = 0 to Array.length dist - 1 do
          mass := !mass +. dist.(m)
        done;
        !mass +. (1. -. ctx.present.(t)))
  in
  (first, step)

let footrule_costs ctx =
  let full = full_rank_table ctx in
  let first, step = footrule_heads ctx full in
  let n = n_keys ctx in
  Array.init n (fun t ->
      let row = Array.make n 0. in
      fill_footrule_row full ~first ~step t row;
      row)

(* Rearranges [a] so that a.(k) is its (k+1)-th largest value, with nothing
   smaller before it and nothing larger after it: a quickselect with a
   three-way partition, O(n) expected even when many values are equal. *)
let select_desc (a : float array) k =
  let swap i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    (* [lo, lt) > pivot, [lt, i) = pivot, (gt, hi] < pivot *)
    let lt = ref !lo and i = ref !lo and gt = ref !hi in
    while !i <= !gt do
      let x = a.(!i) in
      if x > pivot then begin
        swap !lt !i;
        incr lt;
        incr i
      end
      else if x < pivot then begin
        swap !i !gt;
        decr gt
      end
      else incr i
    done;
    if k < !lt then hi := !lt - 1
    else if k > !gt then lo := !gt + 1
    else lo := !hi
  done

(* [d]'s p-th and (p+1)-th largest values, 1 ≤ p < length d, given a
   [guess] of where they lie and the number [a] of values above it.  Both
   values are among the a − p + 1 smallest above the guess or the p + 1 − a
   largest at or below it, and one pass keeps those in two small sorted
   buffers.  A guess off by more than [near] values falls back to a
   quickselect. *)
let near = 8

let boundary_pair (d : float array) p ~guess ~above:a =
  let n = Array.length d in
  (* lo_buf: the ja smallest values above the guess, ascending; hi_buf: the
     jb largest at or below it, descending. *)
  let ja = max 0 (a - p + 1) and jb = max 0 (p + 1 - a) in
  if ja > near || jb > near then begin
    select_desc d (p - 1);
    let next = ref neg_infinity in
    for t = p to n - 1 do
      if d.(t) > !next then next := d.(t)
    done;
    (d.(p - 1), !next)
  end
  else begin
    let lo_buf = Array.make near 0. and hi_buf = Array.make near 0. in
    let na = ref 0 and nb = ref 0 in
    for t = 0 to n - 1 do
      let x = d.(t) in
      if x > guess then begin
        if ja > 0 && (!na < ja || x < lo_buf.(ja - 1)) then begin
          let i = ref (min !na (ja - 1)) in
          while !i > 0 && lo_buf.(!i - 1) > x do
            lo_buf.(!i) <- lo_buf.(!i - 1);
            decr i
          done;
          lo_buf.(!i) <- x;
          if !na < ja then incr na
        end
      end
      else if jb > 0 && (!nb < jb || x > hi_buf.(jb - 1)) then begin
        let i = ref (min !nb (jb - 1)) in
        while !i > 0 && hi_buf.(!i - 1) < x do
          hi_buf.(!i) <- hi_buf.(!i - 1);
          decr i
        done;
        hi_buf.(!i) <- x;
        if !nb < jb then incr nb
      end
    done;
    let xp = if a >= p then lo_buf.(ja - 1) else hi_buf.(p - a - 1) in
    let xq = if a >= p + 1 then lo_buf.(ja - 2) else hi_buf.(jb - 1) in
    (xp, xq)
  end

(* Initial column prices for the footrule assignment, in O(n²).  Row t
   rises by d_t(p) = 2·Pr(r_t ≤ p) − step_t from position p to p + 1, and
   d_t(p) never decreases in p.  The price of that move, λ_p, is midway
   between the p-th and (p+1)-th largest d_t(p), so exactly the p keys that
   lose most by moving past p prefer a position up to p.  The price of
   position p is v_p = Σ_{t<p} λ_t.  Each row's least reduced cost then
   bounds the optimum from below by about the per-position top-p bound, and
   most rows' cheapest reduced positions are distinct.  λ_{p−1} is the
   guess for λ_p. *)
let footrule_prices full ~step =
  let n = Array.length step in
  let v = Array.make n 0. in
  let below = Array.make n 0. and d = Array.make n 0. in
  let lambda = ref 0. in
  for p = 1 to n - 1 do
    let guess = !lambda and above = ref 0 in
    for t = 0 to n - 1 do
      below.(t) <- below.(t) +. full.(t).(p - 1);
      let x = (2. *. below.(t)) -. step.(t) in
      d.(t) <- x;
      if x > guess then incr above
    done;
    let xp, xq = boundary_pair d p ~guess ~above:!above in
    lambda := (xp +. xq) /. 2.;
    v.(p) <- v.(p - 1) +. !lambda
  done;
  v

(* The solver reads one row at a time from a single n-float buffer, so the
   n × n matrix is never built. *)
let footrule_assignment ctx =
  let n = n_keys ctx in
  let full = full_rank_table ctx in
  let first, step = footrule_heads ctx full in
  let buf = Array.make n 0. in
  Hungarian.solve ~prices:(footrule_prices full ~step) ~rows:n ~cols:n (fun t ->
      fill_footrule_row full ~first ~step t buf;
      buf)

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
  let s = footrule_assignment ctx in
  let sigma = Array.make n 0 in
  Array.iteri (fun t pos -> sigma.(pos) <- ctx.keys.(t)) s.Hungarian.assignment;
  (sigma, s.Hungarian.total)

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
