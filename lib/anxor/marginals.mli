(** Rank-related probabilities over a probabilistic relation, computed with
    the generating-function engines (paper §3.3 Example 3, §5).

    Ranking is by decreasing value: [r(t)] is the position (1-based) of the
    tuple among the present tuples of the possible world; absent tuples have
    infinite rank.  The paper assumes pairwise distinct values; functions
    below require it when order matters. *)

val size_distribution : Db.t -> Consensus_poly.Poly1.t
(** [Pr(|pw| = i)] as coefficient [i]. *)

val rank_dist_alt : Db.t -> int -> k:int -> float array
(** [rank_dist_alt db l ~k]: array [r] of length [k] with
    [r.(j-1) = Pr(leaf l present ∧ r(key of l) = j)], computed with a
    truncated bivariate generating function in O(n·k).  Runs the
    allocation-free buffer kernel over the arena. *)

val rank_dist : ?above:float -> Db.t -> int -> k:int -> float array
(** [rank_dist db key ~k]: positional probabilities [Pr(r(key) = j)] for
    j = 1..k, summed over the key's alternatives: the kernel of
    {!rank_dist_alt} per alternative l.

    [above] is the threshold of that count: entry [j - 1] is the
    probability that the key is present with exactly [j - 1] other present
    tuples of value [> above].  It defaults to each alternative's own
    value (the rank).  At [~above:neg_infinity] every other tuple counts,
    so [rank_dist ~above:neg_infinity db key ~k] is
    [Pr(key present ∧ |pw| = j)]: the size-conditioned run the top-k
    Kendall evaluator reads, at the same O(n·k) cost per alternative. *)

val rank_table :
  ?pool:Consensus_engine.Pool.t -> Db.t -> k:int -> (int * float array) list
(** [(key, rank_dist db key ~k)] for every key.  O(n²k) on arbitrary
    trees, parallelized over the keys on [pool] (default: the lazily
    created global pool); dispatches to the O(n·k) sweep of
    {!rank_table_dense} for independent/BID shapes.  The result is
    identical whatever the pool's [jobs] setting. *)

val rank_table_slow :
  ?pool:Consensus_engine.Pool.t -> Db.t -> k:int -> (int * float array) list
(** The general O(n²k) path of {!rank_table} (any tree shape), parallel
    over keys.  Exposed for the engine benchmarks and ablations. *)

val rank_table_dense : Db.t -> k:int -> int array * float array
(** O(n·k) rank table for tuple-independent and BID databases, written into
    one flat row-major buffer — [(keys, dists)] with
    [dists.(r*k + j) = Pr(r(keys.(r)) = j+1)].  One sweep over the
    alternatives in {!Db.score_order} maintains the truncated product of
    per-block generating-function factors, updated by multiplying /
    dividing single linear factors.  A saturated block (a complete
    certain block, or an over-full one) is a shift by one degree: it is
    counted, never divided by, and once more than [k] blocks are saturated
    every later row is 0 and the sweep stops.  While the product of the
    other blocks is untruncated (always at [k = num_alts db]) a division
    runs in its numerically stable direction under a bound on the
    accumulated error, rebuilding the quotient from scratch when the bound
    would pass ~1e6 ulps; a truncated product rebuilds when the division
    would be ill-conditioned.  Raises [Invalid_argument] on other tree
    shapes.  The sweep allocates nothing beyond its few flat arrays (no
    per-key or per-alternative heap structures); this is the entry point
    for million-tuple tables. *)

val full_rank_table : ?pool:Consensus_engine.Pool.t -> Db.t -> float array array
(** The untruncated rank table: row [r] is the rank distribution of key
    [(Db.keys db).(r)], entry [m] = Pr(r(key) = m+1), for m <
    [num_alts db].  Uses the O(n²) sweep of {!rank_table_dense} on
    independent/BID shapes and sums {!full_rank_dist_alt} over each key's
    alternatives (parallel over keys on [pool]) on other trees.  Memoized
    under the [full_rank_dist] cache family; the rows are shared with the
    cache, so treat them as read-only. *)

val rank_leq : Db.t -> int -> k:int -> float
(** [Pr(r(key) <= k)]: probability the key ranks in the top-k. *)

val topk_pair_prob : Db.t -> int -> int -> k:int -> float
(** [topk_pair_prob db key1 key2 ~k = Pr(r(key1) <= k ∧ r(key2) <= k)] for
    distinct keys (used by Kendall-tau, §5.5): one O(n·k²) run of the
    allocation-free trivariate pair kernel over the arena per pair of the
    keys' alternatives; 0 below [k = 2].  An over-full xor node (mass up
    to the [1 + 1e-9] bound) counts as never empty, as possible-world
    enumeration counts it. *)

val topk_pair_prob_ordered : Db.t -> int -> int -> k:int -> float
(** [topk_pair_prob_ordered db key1 key2 ~k =
    Pr(r(key1) < r(key2) <= k)]: both keys rank in the top-k with [key1]
    above [key2].  [topk_pair_prob] is the sum of the two orderings. *)

val beats : Db.t -> int -> int -> float
(** [beats db key1 key2 = Pr(r(key1) < r(key2))]: key1 is ranked strictly
    higher (including the case where key2 is absent and key1 present). *)

val beats_present : Db.t -> int -> int -> float
(** [Pr(both keys present ∧ r(key1) < r(key2))]: the both-present part of
    {!beats}. *)

val expected_rank : Db.t -> int -> float
(** The {e expected rank} of Cormode et al. (ICDE 2009): the expectation of
    the 0-based count of strictly higher-ranked present tuples, with absent
    tuples assigned rank [|pw|]. *)

val expected_value : Db.t -> int -> float
(** [E(value of key · presence indicator)]: the expected score of a key. *)

val full_rank_dist_alt : Db.t -> int -> float array
(** Untruncated version of {!rank_dist_alt}: length [num_alts db], entry
    [m] = Pr(leaf present ∧ exactly [m] higher-valued tuples present). *)
