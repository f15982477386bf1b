open Consensus_anxor
module Topk_list = Consensus_ranking.Topk_list
module Aggregation = Consensus_ranking.Aggregation
module Hungarian = Consensus_matching.Hungarian
module Pool = Consensus_engine.Pool
module Obs = Consensus_obs.Obs
module Cache = Consensus_cache.Cache
module Heap = Consensus_util.Heap

module Itbl = Hashtbl.Make (Int)

type ctx = {
  db : Db.t;
  k : int;
  pool : Pool.t; (* engine pool shared by every computation on this ctx *)
  keys : int array;
  rank : float array array; (* per key index: Pr(r = i), i = 1..k *)
  leq : float array; (* key index t's Pr(r <= i), i = 1..k, at t·k + i - 1 *)
  sum_leq : float array; (* Σ_keys Pr(r <= i), i = 1..k (0-based i-1) *)
  joint_ord : float Itbl.t;
      (* ordered joint top-k cache, keyed by [pair_code] of key indices; the
         diagonal code of key index i holds [beaten_in_topk] i *)
}

(* One span per public algorithm, labelled with the metric and the instance
   shape — the per-query cost attribution the trace viewer shows.  [attrs]
   adds algorithm-specific fields (candidate-space sizes mostly); the
   closure only runs when tracing is on. *)
let algo_span ?(attrs = fun () -> []) name ~k ~n f =
  Obs.with_span
    ~attrs:(fun () -> ("k", Obs.Int k) :: ("keys", Obs.Int n) :: attrs ())
    ("core.topk." ^ name)
    f

(* Ordered-joint probabilities (and the per-key totals on the diagonal) are
   shared across contexts on the same database through the process cache:
   every entry is a deterministic function of (db, k, pair), so seeding from
   a snapshot yields the same floats a fresh computation would. *)
let joints_cache_key db ~k =
  Cache.key ~family:"topk_joints" ~digest:(Db.digest db)
    ~params:[ string_of_int k ]

let make_ctx ?pool db ~k =
  if k <= 0 then invalid_arg "Topk_consensus.make_ctx: k must be positive";
  if not (Db.scores_distinct db) then
    invalid_arg "Topk_consensus.make_ctx: scores must be pairwise distinct";
  algo_span "make_ctx" ~k ~n:(Db.num_keys db) @@ fun () ->
  let pool = Pool.resolve pool in
  let keys = Db.keys db in
  let nk = Array.length keys in
  (* rank_table dispatches to the O(nk) sweep on independent/BID shapes;
     either path returns its rows in [Db.keys] order *)
  let rank = Array.make nk [||] in
  List.iteri
    (fun i (key, dist) ->
      if key <> keys.(i) then
        invalid_arg "Topk_consensus.make_ctx: rank table out of key order";
      rank.(i) <- dist)
    (Marginals.rank_table ~pool db ~k);
  let leq = Array.make (nk * k) 0. in
  let sum_leq = Array.make k 0. in
  for t = 0 to nk - 1 do
    let dist = rank.(t) in
    leq.(t * k) <- dist.(0);
    for i = 1 to k - 1 do
      leq.((t * k) + i) <- leq.((t * k) + i - 1) +. dist.(i)
    done;
    for i = 0 to k - 1 do
      sum_leq.(i) <- sum_leq.(i) +. leq.((t * k) + i)
    done
  done;
  let joint_ord = Itbl.create 64 in
  (if k >= 2 && Cache.active () then
     match Cache.find Cache.Pairs (joints_cache_key db ~k) with
     | Some (codes, probs) ->
         Array.iteri (fun i code -> Itbl.replace joint_ord code probs.(i)) codes
     | None -> ());
  { db; k; pool; keys; rank; leq; sum_leq; joint_ord }

let db ctx = ctx.db
let k ctx = ctx.k
let pool ctx = ctx.pool

let kidx ctx key =
  match Db.key_index ctx.db key with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Topk_consensus: unknown key %d" key)

(* Pr(r <= i) of the key at index [t]. *)
let leq ctx t i = ctx.leq.((t * ctx.k) + i - 1)

(* Pr(r <= k) of the key at index [t]. *)
let leq_k ctx t = leq ctx t ctx.k

let rank_leq ctx key = leq_k ctx (kidx ctx key)

let pair_code ctx i j = (i * Array.length ctx.keys) + j

(* O_i = Σ_{j≠i} Pr(r(i) < r(j) <= k) for key index i: the expected number
   of keys ranked strictly between i and position min(k, |pw|), which in a
   world with r(i) <= k number min(k, |pw|) − r(i).  A world with |pw| < k
   has r(i) <= |pw| < k, so
     O_i = k·Pr(r(i) <= k) − Σ_{m<k} (k − m)·Pr(i present ∧ |pw| = m)
                           − Σ_{m<=k} m·Pr(r(i) = m):
   one size-conditioned rank-kernel run per alternative, O(n·k), in place
   of n − 1 trivariate joints. *)
let beaten_in_topk ctx i =
  let k = ctx.k in
  let size = Marginals.rank_dist ~above:neg_infinity ctx.db ctx.keys.(i) ~k in
  let rank = ctx.rank.(i) in
  let acc = ref (float_of_int k *. leq_k ctx i) in
  for m = 1 to k do
    acc :=
      !acc
      -. (float_of_int (k - m) *. size.(m - 1))
      -. (float_of_int m *. rank.(m - 1))
  done;
  !acc

(* What the cache holds at [code]: the ordered joint
   Pr(r(keys.(i)) < r(keys.(j)) <= k) for i <> j, and [beaten_in_topk] i on
   the diagonal, which no joint uses.  Both are 0 below k = 2. *)
let pair_value ctx code =
  let n = Array.length ctx.keys in
  let i = code / n and j = code mod n in
  if i = j then beaten_in_topk ctx i
  else Marginals.topk_pair_prob_ordered ctx.db ctx.keys.(i) ctx.keys.(j) ~k:ctx.k

let cached ctx code =
  if ctx.k < 2 then 0.
  else
    match Itbl.find_opt ctx.joint_ord code with
    | Some p -> p
    | None ->
        let p = pair_value ctx code in
        Itbl.replace ctx.joint_ord code p;
        p

(* Pr(r(keys.(i)) < r(keys.(j)) <= k), for key indices i <> j. *)
let joint_ordered ctx i j = cached ctx (pair_code ctx i j)

(* O_i of key index i, through the cache. *)
let beaten ctx i = cached ctx (pair_code ctx i i)

(* Batch-fill the ordered-joint cache for [codes]: the pair probabilities
   are the trivariate kernel runs dominating every Kendall computation, and
   they (and the diagonal totals) are independent of each other — compute
   each missing one once, in parallel, then insert sequentially (the cache
   is only ever touched by the submitting domain). *)
let ensure_joints ctx codes =
  let missing =
    if ctx.k < 2 then [||]
    else
      List.filter (fun code -> not (Itbl.mem ctx.joint_ord code)) codes
      |> List.sort_uniq Int.compare |> Array.of_list
  in
  if Array.length missing > 0 then begin
    Obs.with_span
      ~attrs:(fun () ->
        [ ("pairs", Obs.Int (Array.length missing)); ("k", Obs.Int ctx.k) ])
      "core.topk.kendall_joints"
    @@ fun () ->
    let values =
      Pool.parallel_map ~pool:ctx.pool ~stage:"kendall_joints" (pair_value ctx)
        missing
    in
    Array.iteri (fun i code -> Itbl.replace ctx.joint_ord code values.(i)) missing;
    if Cache.active () then begin
      (* Publish the grown table so later contexts on this database start
         from the warm set. *)
      let size = Itbl.length ctx.joint_ord in
      let codes = Array.make size 0 and probs = Array.make size 0. in
      let next = ref 0 in
      Itbl.iter
        (fun code p ->
          codes.(!next) <- code;
          probs.(!next) <- p;
          incr next)
        ctx.joint_ord;
      Cache.store Cache.Pairs (joints_cache_key ctx.db ~k:ctx.k) (codes, probs)
    end
  end

(* ---------- evaluators ---------- *)

let expected_sym_diff ctx tau =
  Topk_list.validate ~k:ctx.k tau;
  let in_tau = Array.fold_left (fun acc key -> acc +. rank_leq ctx key) 0. tau in
  (float_of_int (Array.length tau) +. ctx.sum_leq.(ctx.k - 1) -. (2. *. in_tau))
  /. float_of_int (2 * ctx.k)

let expected_intersection ctx tau =
  Topk_list.validate ~k:ctx.k tau;
  let acc = ref 0. in
  for i = 1 to ctx.k do
    (* Normalized symmetric difference of the depth-i prefixes. *)
    let prefix_hits = ref 0. in
    for j = 0 to min i (Array.length tau) - 1 do
      prefix_hits := !prefix_hits +. leq ctx (kidx ctx tau.(j)) i
    done;
    let size_prefix = float_of_int (min i (Array.length tau)) in
    acc :=
      !acc
      +. ((size_prefix +. ctx.sum_leq.(i - 1) -. (2. *. !prefix_hits))
         /. float_of_int (2 * i))
  done;
  !acc /. float_of_int ctx.k

(* Footrule ingredients (Figure 2): for each key t,
   in_list t i  = E|pos_τ(t) - pos_pw(t)| when τ(i) = t
   base t       = the same when t ∉ τ (τ-position k+1). *)
let footrule_in_list ctx ti i =
  let rank = ctx.rank.(ti) in
  let acc = ref 0. in
  for j = 0 to ctx.k - 1 do
    acc := !acc +. (rank.(j) *. float_of_int (abs (i - (j + 1))))
  done;
  !acc +. ((1. -. leq_k ctx ti) *. float_of_int (ctx.k + 1 - i))

let footrule_base ctx ti =
  let rank = ctx.rank.(ti) in
  let acc = ref 0. in
  for j = 0 to ctx.k - 1 do
    acc := !acc +. (rank.(j) *. float_of_int (ctx.k + 1 - (j + 1)))
  done;
  !acc

(* Row [ti] of the footrule cost matrix over τ-positions 1..positions,
   row.(i - 1) = footrule_in_list ti i − footrule_base ti, in O(k).  Moving
   from position i to i + 1 takes every world rank at or before i one
   further away and brings every later rank, and the absent position k+1,
   one closer: the cost changes by 2·Pr(r ≤ i) − Pr(r ≤ k) − Pr(r > k). *)
let footrule_cost_row ctx ~positions ti =
  let step = leq_k ctx ti +. (1. -. leq_k ctx ti) in
  let row =
    Array.make positions (footrule_in_list ctx ti 1 -. footrule_base ctx ti)
  in
  for i = 1 to positions - 1 do
    row.(i) <- row.(i - 1) +. ((2. *. leq ctx ti i) -. step)
  done;
  row

let expected_footrule ctx tau =
  Topk_list.validate ~k:ctx.k tau;
  (* Σ_t footrule_base t: each key's base is Σ_{i<=k} Pr(r(t) <= i), so
     the total is the sum of the column sums [sum_leq], in O(k). *)
  let total = ref 0. in
  for i = 0 to ctx.k - 1 do
    total := !total +. ctx.sum_leq.(i)
  done;
  let total = !total in
  let adjust = ref 0. in
  Array.iteri
    (fun pos key ->
      let ti = kidx ctx key in
      adjust := !adjust +. footrule_in_list ctx ti (pos + 1) -. footrule_base ctx ti)
    tau;
  total +. !adjust

(* Key-index membership of [tis]. *)
let index_set ctx tis =
  let mem = Array.make (Array.length ctx.keys) false in
  Array.iter (fun t -> mem.(t) <- true) tis;
  mem

(* Σ_{j∉τ} J(i, j) for the key at τ-position [a] of [len] can be read
   outside key by outside key, n − len joints, or as O_i minus the joints
   with the other τ keys: the later ones are read either way, so that costs
   the [a] earlier ones plus one O(n·k) total.  Take the fewer joint runs. *)
let via_total ctx ~len a = a < Array.length ctx.keys - len

(* Pair codes [expected_kendall] reads for τ given as key indices: the
   joints with every later τ key, and per [via_total] either O_i and the
   joints with the earlier τ keys, or the joints with every outside key. *)
let kendall_codes ctx tis =
  let n = Array.length ctx.keys in
  let len = Array.length tis in
  let in_tau = index_set ctx tis in
  let codes = ref [] in
  Array.iteri
    (fun a t ->
      for b = a + 1 to len - 1 do
        codes := pair_code ctx t tis.(b) :: !codes
      done;
      if via_total ctx ~len a then
        for b = 0 to a do
          codes := pair_code ctx t tis.(b) :: !codes
        done
      else
        for j = 0 to n - 1 do
          if not in_tau.(j) then codes := pair_code ctx t j :: !codes
        done)
    tis;
  !codes

(* Cost of placing key index i before key index j, both in the answer or
   j outside it: the disagreement probability
     Pr(both in top-k with j above i)            (order flipped)
   + Pr(j in top-k ∧ i not in top-k)             (i missing)
   = Pr(j in top-k) − Pr(both in top-k with i above j). *)
let contribution ctx i j = leq_k ctx j -. joint_ordered ctx i j

let expected_kendall ctx tau =
  Topk_list.validate ~k:ctx.k tau;
  let tis = Array.map (kidx ctx) tau in
  ensure_joints ctx (kendall_codes ctx tis);
  (* Every ordered key pair (i, j) with i ∈ τ and j required to come after
     i: j later in τ, or j ∉ τ.  The outside pairs of i sum to
     Σ_{j∉τ} Pr(r(j) <= k) − Σ_{j∉τ} J(i, j), and
     Σ_{j∉τ} J(i, j) = O_i − Σ_{j∈τ∖i} J(i, j). *)
  let in_tau = index_set ctx tis in
  let len = Array.length tis in
  let outside_leq = ref ctx.sum_leq.(ctx.k - 1) in
  for a = 0 to len - 1 do
    outside_leq := !outside_leq -. leq_k ctx tis.(a)
  done;
  let acc = ref 0. in
  for a = 0 to len - 1 do
    let i = tis.(a) in
    for b = a + 1 to len - 1 do
      acc := !acc +. contribution ctx i tis.(b)
    done;
    if via_total ctx ~len a then begin
      let inside = ref 0. in
      for b = 0 to len - 1 do
        if b <> a then inside := !inside +. joint_ordered ctx i tis.(b)
      done;
      acc := !acc +. (!outside_leq -. (beaten ctx i -. !inside))
    end
    else
      for j = 0 to Array.length ctx.keys - 1 do
        if not in_tau.(j) then acc := !acc +. contribution ctx i j
      done
  done;
  !acc

(* ---------- consensus answers ---------- *)

(* Pr(r <= k) per key index. *)
let leq_k_column ctx =
  let n = Array.length ctx.keys in
  let col = Array.make n 0. in
  for t = 0 to n - 1 do
    (* [leq_k] inlined: its float return would be boxed per key *)
    col.(t) <- ctx.leq.((t * ctx.k) + ctx.k - 1)
  done;
  col

(* The k keys of largest [score] (per key index), ties to the lower index:
   the tie rule of every answer read off a per-key score. *)
let top_keys_by ctx score = Array.map (fun t -> ctx.keys.(t)) (Heap.top_indices score ctx.k)

let mean_sym_diff ctx =
  algo_span "mean_sym_diff" ~k:ctx.k ~n:(Array.length ctx.keys) @@ fun () ->
  top_keys_by ctx (leq_k_column ctx)

(* Theorem 4 dynamic program.  For a threshold value [a], [filter_leaves]
   keeps the leaves with value >= a; the DP computes, for every world size
   0..k of the restricted tree, the realizable world maximizing the sum of
   Pr(r(t) <= k) over its members. *)
let median_sym_diff ctx =
  algo_span "median_sym_diff" ~k:ctx.k ~n:(Array.length ctx.keys)
    ~attrs:(fun () ->
      (* The DP candidate space: one restricted tree per threshold value,
         each solved for world sizes 0..k. *)
      [
        ("alts", Obs.Int (Db.num_alts ctx.db));
        ("thresholds", Obs.Int (Array.length ctx.keys));
      ])
  @@ fun () ->
  let db = ctx.db in
  let key_rows = Db.key_rows db in
  let p_of_leaf l = leq_k ctx key_rows.(l) in
  let a = Db.arena db in
  let dp_tree threshold =
    let kk = ctx.k in
    (* entry: score, chosen leaves (None = infeasible) *)
    let merge_xor results residual_empty =
      let best = Array.make (kk + 1) None in
      if residual_empty then best.(0) <- Some (0., []);
      List.iter
        (fun child ->
          Array.iteri
            (fun i entry ->
              match entry with
              | None -> ()
              | Some (s, w) -> (
                  match best.(i) with
                  | Some (bs, _) when bs >= s -> ()
                  | _ -> best.(i) <- Some (s, w)))
            child)
        results;
      best
    in
    let merge_and results =
      List.fold_left
        (fun acc child ->
          let next = Array.make (kk + 1) None in
          Array.iteri
            (fun i entry ->
              match entry with
              | None -> ()
              | Some (s1, w1) ->
                  Array.iteri
                    (fun j entry2 ->
                      if i + j <= kk then
                        match entry2 with
                        | None -> ()
                        | Some (s2, w2) -> (
                            let s = s1 +. s2 in
                            match next.(i + j) with
                            | Some (bs, _) when bs >= s -> ()
                            | _ -> next.(i + j) <- Some (s, List.rev_append w2 w1)))
                    child)
            acc;
          next)
        (let base = Array.make (kk + 1) None in
         base.(0) <- Some (0., []);
         base)
        results
    in
    (* Node ids are pre-order: sweeping them from last to first finishes
       every child's subtree before its parent, so when a node is reached
       its children's tables are the top entries of [pending], first child
       on top.  (A stack rather than a per-node array: storing young tables
       into a long-lived array costs a write barrier and early promotion.) *)
    let pending = ref [] in
    let rec pop count acc = function
      | t :: rest when count > 0 -> pop (count - 1) (t :: acc) rest
      | rest ->
          pending := rest;
          List.rev acc
    in
    for n = Arena.num_nodes a - 1 downto 0 do
      let kind = Arena.kind a n in
      let t =
        if kind = Arena.kind_leaf then begin
          let l = a.leaf_ix.(n) in
          let arr = Array.make (kk + 1) None in
          if (Db.alt db l).Db.value >= threshold then
            arr.(1) <- Some (p_of_leaf l, [ l ])
          else arr.(0) <- Some (0., [])
          (* a filtered leaf contributes the empty set *);
          arr
        end
        else begin
          let children = pop a.child_count.(n) [] !pending in
          if kind = Arena.kind_and then merge_and children
          else begin
            let st = a.child_start.(n) in
            let total = ref 0. in
            for j = st to st + a.child_count.(n) - 1 do
              total := !total +. a.eprob.(a.children.(j))
            done;
            merge_xor children (!total < 1. -. 1e-12)
          end
        end
      in
      pending := t :: !pending
    done;
    List.hd !pending
  in
  (* Candidate thresholds: all distinct leaf values (decreasing), which
     cover every possible k-th score; the minimum threshold also yields the
     short answers of worlds with fewer than k tuples. *)
  let values =
    Array.init (Db.num_alts db) (fun l -> (Db.alt db l).Db.value)
    |> Array.to_list |> List.sort_uniq Float.compare
  in
  let min_value = List.hd values in
  (* Objective for a candidate of size s with score sum Σ P(t):
     maximize Σ_{t∈τ}(2 P(t) - 1)  ⇔  minimize E|τ Δ τ_pw| (size-aware). *)
  let best = ref None in
  let consider entry size =
    match entry with
    | None -> ()
    | Some (s, leaves) -> (
        let objective = (2. *. s) -. float_of_int size in
        match !best with
        | Some (bo, _) when bo >= objective -> ()
        | _ -> best := Some (objective, leaves))
  in
  List.iter
    (fun a ->
      Consensus_util.Deadline.check_current ();
      let table = dp_tree a in
      consider table.(ctx.k) ctx.k;
      if a = min_value then
        for size = 0 to ctx.k - 1 do
          consider table.(size) size
        done)
    values;
  match !best with
  | None -> [||]
  | Some (_, leaves) ->
      (* Order the chosen alternatives by decreasing value, return keys. *)
      List.map (fun l -> Db.alt db l) leaves
      |> List.sort (fun (a : Db.alt) b -> Float.compare b.value a.value)
      |> List.map (fun (a : Db.alt) -> a.key)
      |> Array.of_list

(* The position × key matrix the assignment solvers take, from per-key
   rows over the positions. *)
let by_position rows positions =
  Array.init positions (fun j -> Array.map (fun row -> row.(j)) rows)

let mean_intersection ctx =
  let n = Array.length ctx.keys in
  (* With fewer keys than k the answer holds all keys and only their order
     is assigned; the per-position profits still sum to the true k. *)
  let positions = min ctx.k n in
  algo_span "mean_intersection" ~k:ctx.k ~n @@ fun () ->
  (* profit of placing key t at position j (1-based): Σ_{i>=j} Pr(r<=i)/i,
     one suffix sum per key *)
  let rows =
    Array.init n (fun t ->
        let row = Array.make positions 0. in
        let acc = ref 0. in
        for i = ctx.k downto 1 do
          acc := !acc +. (leq ctx t i /. float_of_int i);
          if i <= positions then row.(i - 1) <- !acc
        done;
        row)
  in
  let assignment, _ = Hungarian.maximize (by_position rows positions) in
  Array.map (fun ti -> ctx.keys.(ti)) assignment

let mean_intersection_upsilon ctx =
  let n = Array.length ctx.keys in
  let score = Array.make n 0. in
  for t = 0 to n - 1 do
    for i = 1 to ctx.k do
      score.(t) <- score.(t) +. (leq ctx t i /. float_of_int i)
    done
  done;
  top_keys_by ctx score

let mean_footrule ctx =
  let n = Array.length ctx.keys in
  let positions = min ctx.k n in
  algo_span "mean_footrule" ~k:ctx.k ~n @@ fun () ->
  let rows = Array.init n (footrule_cost_row ctx ~positions) in
  let assignment, _ = Hungarian.minimize (by_position rows positions) in
  Array.map (fun ti -> ctx.keys.(ti)) assignment

let mean_kendall_pivot rng ?(trials = 8) ctx =
  let n = Array.length ctx.keys in
  let pool_size = min n (max (2 * ctx.k) (ctx.k + 4)) in
  algo_span "mean_kendall_pivot" ~k:ctx.k ~n
    ~attrs:(fun () ->
      [ ("trials", Obs.Int trials); ("pool", Obs.Int pool_size) ])
  @@ fun () ->
  (* Candidate pool: the most top-k-likely keys. *)
  let pool = Array.map (fun t -> ctx.keys.(t)) (Heap.top_indices (leq_k_column ctx) pool_size) in
  let pref =
    let compute () =
      Pool.parallel_init ~pool:ctx.pool ~stage:"kendall_tournament" pool_size
        (fun i ->
          Array.init pool_size (fun j ->
              if i = j then 0. else Marginals.beats ctx.db pool.(i) pool.(j)))
    in
    (* [pool] is a deterministic function of (db, k): the tournament
       matrix can be keyed by the same pair. *)
    Cache.memo Cache.Matrix ~family:"topk_beats"
      ~digest:(fun () -> Db.digest ctx.db)
      ~params:[ string_of_int ctx.k ] compute
  in
  let pivot_order, _ = Aggregation.best_pivot_of rng ~trials pref in
  let improved, _ = Aggregation.local_search pref pivot_order in
  let candidate_pivot = Array.init (min ctx.k pool_size) (fun i -> pool.(improved.(i))) in
  (* Tournament of candidates under the exact expected Kendall distance. *)
  let candidates =
    [ candidate_pivot; mean_sym_diff ctx; mean_footrule ctx ]
  in
  List.fold_left
    (fun (bt, bd) t ->
      let d = expected_kendall ctx t in
      if d < bd then (t, d) else (bt, bd))
    (candidate_pivot, expected_kendall ctx candidate_pivot)
    candidates
  |> fst

(* ---------- metrics ---------- *)

type metric = Sym_diff | Intersection | Footrule | Kendall

let eval_metric metric ~k t1 t2 =
  match metric with
  | Sym_diff -> Topk_list.sym_diff ~k t1 t2
  | Intersection -> Topk_list.intersection ~k t1 t2
  | Footrule -> Topk_list.footrule ~k t1 t2
  | Kendall -> Topk_list.kendall ~k t1 t2
