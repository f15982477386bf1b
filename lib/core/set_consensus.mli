(** Consensus worlds under set distance measures (paper §4).

    A {e world answer} is a set of tuple alternatives, represented by the
    sorted list of their leaf indices in the database's and/xor tree.  The
    {e mean world} minimizes the expected distance to the random possible
    world over all leaf subsets; the {e median world} minimizes it over the
    possible worlds only. *)

open Consensus_anxor

type world = int list
(** Sorted leaf indices. *)

val forced_marginal : float -> bool
(** True iff a marginal probability (or xor-block mass) is within
    [Consensus_util.Fcmp] tolerance of 1, i.e. the tuple (or block) is
    treated as present in every possible world.  This single predicate
    backs the forced-tuple classification of {!median_jaccard},
    {!median_jaccard_bid} and {!median_sym_diff} — previously the
    independent and BID paths used different ad-hoc epsilons ([1e-12]
    vs [1e-9]) and could classify the same near-certain tuple
    differently. *)

(** {1 Symmetric difference (§4.1)} *)

val expected_sym_diff : Db.t -> world -> float
(** Closed-form [E(|W Δ pw|) = Σ_{t∈W} (1 - Pr t) + Σ_{t∉W} Pr t]. *)

val mean_sym_diff : Db.t -> world
(** Theorem 2: the leaves with marginal probability > 1/2.  Valid under
    {e any} correlation model. *)

val median_sym_diff : Db.t -> world
(** Exact median world under symmetric difference for and/xor trees, by a
    linear-time tree DP minimizing [Σ_{t∈W}(1 - 2·Pr t)] over possible
    worlds.  By Corollary 1 this coincides with {!mean_sym_diff} whenever
    that set is a possible world (ties aside). *)

(** {1 Jaccard distance (§4.2)} *)

val expected_jaccard : Db.t -> world -> float
(** Lemma 1: exact [E d_J(W, pw)].  With [I = |pw ∩ W|] and
    [J = |pw \ W|], [d_J = (|W| - I + J) / (|W| + J)] is linear in [I],
    so one {!Genfunc.bipoly} run suffices: a leaf of [W] maps to the dual
    number [1 + ε], every other leaf to [y].  Coefficient [j] of the real
    part is [Pr(J = j)], of the [ε] part [E(I·1{J = j})], and
    [E d_J = Σ_j (Pr(J = j) - E(I·1{J = j}) / (|W| + j))], skipping
    [|W| + j = 0] ([d_J(∅, ∅) = 0]).  O(n²) for n leaves. *)

val mean_jaccard : Db.t -> world
(** Lemma 2's algorithm: for a {e tuple-independent} database the mean world
    is a prefix of the tuples sorted by decreasing probability; evaluates
    all prefixes with {!expected_jaccard}, O(n³).  This sweep, shared with
    both medians, polls [Consensus_util.Deadline.check_current] once per
    prefix, so an expired request token raises [Deadline.Expired].  Raises
    [Invalid_argument] if the database is not tuple-independent. *)

val median_jaccard : Db.t -> world
(** Median world under Jaccard for a {e tuple-independent} database: when
    every tuple probability lies strictly between 0 and 1 each subset is a
    possible world and the median coincides with {!mean_jaccard}; certain
    tuples (p = 1) are forced into every candidate and impossible ones
    (p = 0) are excluded, with the probability-sorted prefix sweep run on
    the rest.  Raises [Invalid_argument] if the database is not
    tuple-independent. *)

val median_jaccard_bid : Db.t -> world
(** Median world under Jaccard for a {e BID-shaped} database (§4.2),
    x-tuple blocks included: candidate worlds keep only the
    highest-probability alternative per xor block, forced blocks
    (alternatives summing to 1) always included, optional blocks added in
    decreasing probability order.  Every candidate is a possible world,
    but the prefix scan can miss the optimum.  Raises [Invalid_argument]
    if the database is not BID-shaped. *)
