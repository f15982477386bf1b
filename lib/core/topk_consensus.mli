(** Consensus top-k answers (paper §5).

    A top-k answer is an ordered array of distinct keys ({!Consensus_ranking.Topk_list.t}).
    For each metric this module provides (i) a closed-form evaluator of the
    expected distance between a candidate answer and the random world's
    answer, computed with generating functions, and (ii) the consensus
    optimization algorithms of the paper. *)

open Consensus_anxor
module Topk_list = Consensus_ranking.Topk_list

type ctx
(** Pre-computed rank probabilities of a database for a fixed [k]; share one
    [ctx] across evaluations and optimizations. *)

val make_ctx : ?pool:Consensus_engine.Pool.t -> Db.t -> k:int -> ctx
(** O(n²k) pre-computation of all positional probabilities, parallelized
    over the keys on [pool] (default: the global engine pool).  The pool is
    retained by the context: every subsequent evaluator and optimizer runs
    its parallel stages on it.  Results are identical whatever the pool's
    [jobs] setting. *)

val db : ctx -> Db.t
val k : ctx -> int

val pool : ctx -> Consensus_engine.Pool.t
(** The engine pool the context computes on (useful for metrics). *)

val rank_leq : ctx -> int -> float
(** [Pr(r(key) <= k)] from the context table. *)

(** {1 Metrics} *)

type metric = Sym_diff | Intersection | Footrule | Kendall

val eval_metric : metric -> k:int -> Topk_list.t -> Topk_list.t -> float
(** [eval_metric m ~k t1 t2]: the distance between two concrete top-k
    answers under [m] ({!Consensus_ranking.Topk_list}). *)

(** {1 Expected-distance evaluators (closed forms)} *)

val expected_sym_diff : ctx -> Topk_list.t -> float
(** [E d_Δ(τ, τ_pw)], exact (proof of Theorem 3 generalized to worlds with
    fewer than [k] tuples). *)

val expected_intersection : ctx -> Topk_list.t -> float
(** [E d_I(τ, τ_pw)], exact (§5.3). *)

val expected_footrule : ctx -> Topk_list.t -> float
(** [E d_F(τ, τ_pw)] with location parameter k+1, exact (§5.4, Figure 2). *)

val expected_kendall : ctx -> Topk_list.t -> float
(** [E d_K(τ, τ_pw)] for the minimizing Kendall distance K_min, exact via
    pairwise joint top-k probabilities (§5.5): a pair (i, j) that τ orders
    i first, or with j outside τ, costs [Pr(r(j) <= k) − Pr(r(i) < r(j) <= k)].
    The joints of an answer key i with the keys outside τ sum to
    [O_i − Σ_{j∈τ∖i} Pr(r(i) < r(j) <= k)], where [O_i] comes from one
    size-conditioned rank-kernel run per alternative (O(n·k)); each key
    takes that or its outside joints, whichever needs fewer joint runs.  So
    at most [k·min(k − 1, n − k) + k(k−1)/2] joints of O(n·k²) each on first
    use, linear in n at fixed k; joints and totals are cached in the
    context and published to the process cache. *)

(** {1 Consensus answers} *)

val mean_sym_diff : ctx -> Topk_list.t
(** Theorem 3: the [k] keys with largest [Pr(r(t) <= k)] (the PT-k /
    Global-Top-k answer). *)

val median_sym_diff : ctx -> Topk_list.t
(** Theorem 4: the top-k answer of a possible world maximizing
    [Σ_{t∈τ} Pr(r(t) <= k)], by the threshold-and-knapsack dynamic program
    over the and/xor tree.  If no world has [k] or more tuples the best
    shorter answer is returned. *)

val mean_intersection : ctx -> Topk_list.t
(** Exact mean under the intersection metric via a maximum-weight assignment
    of tuples to positions with profit [Σ_{i>=j} Pr(r(t)<=i)/i] (§5.3), each
    key's profits one suffix sum: O(k·n) for the matrix. *)

val mean_intersection_upsilon : ctx -> Topk_list.t
(** The ΥH-ranking answer: an H_k-approximation of {!mean_intersection}
    (§5.3). *)

val mean_footrule : ctx -> Topk_list.t
(** Exact mean under the footrule metric via a minimum-cost assignment with
    the position costs of Figure 2 (§5.4); each key's costs over the
    positions follow from the first by the step 2·Pr(r ≤ i) − 1, so the
    matrix costs O(k·n). *)

val mean_kendall_pivot :
  Consensus_util.Prng.t -> ?trials:int -> ctx -> Topk_list.t
(** Kendall-tau consensus by KwikSort over the tournament
    [Pr(r(t_i) < r(t_j))] restricted to a candidate pool, improved by local
    search and evaluated with {!expected_kendall}; a practical stand-in for
    Ailon's LP-based 3/2-approximation, which uses exactly the same pairwise
    information (§5.5 and DESIGN.md §3). *)

