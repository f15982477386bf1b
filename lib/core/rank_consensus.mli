(** Consensus {e complete} rankings.

    The paper's framework specialized to full rankings instead of top-k
    lists — the classic rank-aggregation setting (§2) lifted to possible
    worlds, and one of the §7 extensions.  An answer is a permutation of
    all keys; the world's answer ranks its present tuples by value, with
    absent tuples conceptually appended after every present one (position
    parameter n+1 for the footrule, K_min convention for Kendall).

    The mean ranking under Spearman's footrule is an n×n assignment
    problem over the full rank distributions; the mean under Kendall's tau
    is weighted Kemeny aggregation on the pairwise-disagreement matrix
    (NP-hard exactly; pivot + local search with an exact bitmask-DP oracle
    for small n). *)

open Consensus_anxor

type ctx
(** A database's per-key presence marginals, plus the intermediates each
    metric needs, built on first use and kept: the full rank table
    ({!Consensus_anxor.Marginals.full_rank_table}, footrule only) and the
    disagreement matrix (Kendall). *)

val make_ctx : ?pool:Consensus_engine.Pool.t -> Db.t -> ctx
(** Cheap: key positions and presence marginals.  The context retains
    [pool] (default: the global engine pool) for the later table and
    matrix builds.  Results are identical whatever the pool's [jobs]
    setting. *)

val db : ctx -> Db.t
val keys : ctx -> int array

val pool : ctx -> Consensus_engine.Pool.t
(** The engine pool the context computes on (useful for metrics). *)

val expected_footrule : ctx -> int array -> float
(** [E Σ_t |σ(t) - pos_pw(t)|] for a permutation [σ] of all keys, where
    absent tuples sit at position n+1. *)

val position_cost : ctx -> int -> int -> float
(** [position_cost ctx key pos] = [E|pos - pos_pw(key)|] for 1 ≤ [pos] ≤ n,
    with absent tuples at position n+1: one cell of the footrule cost
    matrix, by its definition, in O(n). *)

val footrule_costs : ctx -> float array array
(** The footrule assignment matrix: row [r] is key [(keys ctx).(r)], entry
    [pos - 1] its {!position_cost} at [pos].  Each row is built in O(n) by
    the recurrence cost(pos + 1) = cost(pos) + 2·Pr(r ≤ pos) − 1, so the
    matrix costs O(n²).  {!mean_footrule} never builds it: it fills the same
    rows, bit for bit, one at a time. *)

val expected_kendall : ctx -> int array -> float
(** Expected number of forced pairwise disagreements between [σ] and the
    world ranking. *)

val footrule_assignment : ctx -> Consensus_matching.Hungarian.solution
(** The footrule assignment behind {!mean_footrule}: row [r] is key
    [(keys ctx).(r)], column [pos - 1] its position.  The solver starts from
    per-position threshold prices and reads one O(n) row at a time, so the
    matrix is never built; the solution carries its Dijkstra step and
    augmentation counts. *)

val mean_footrule : ctx -> int array * float
(** Exact mean ranking under the footrule, by {!footrule_assignment}:
    O(n²) for the row heads and prices, then O(n) per Dijkstra step;
    returns (permutation, expected distance). *)

val mean_kendall_pivot :
  Consensus_util.Prng.t -> ?trials:int -> ctx -> int array * float
(** KwikSort on the disagreement tournament + local search; expected
    constant-factor approximation. *)

val mean_kendall_exact : ctx -> int array * float
(** Exact weighted Kemeny optimum by {!Consensus_ranking.Aggregation.kemeny_exact}:
    a bitmask DP per Condorcet component of the disagreement tournament,
    O(n² + Σ_c 2^|c|·|c|); requires at most 22 keys. *)

val disagreement_matrix : ctx -> float array array
(** [w.(i).(j)]: probability that ordering key [i] before key [j]
    disagrees with the world (j present above i, or j present and i
    absent); the Kemeny weights. *)
