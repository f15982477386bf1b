(** Consensus answers for group-by count aggregates (paper §6.1).

    An instance is an [n × m] row-stochastic matrix [P]: tuple [i] takes
    group [j] with probability [P.(i).(j)] (tuples independent, every tuple
    present).  A query answer is the [m]-vector of group counts; the
    distance is the squared L2 vector distance. *)

type t
(** A validated instance. *)

val create : float array array -> t
(** Validate row-stochasticity (rows sum to 1 ± 1e-6, entries in [0,1]). *)

val num_tuples : t -> int
val num_groups : t -> int
val probs : t -> float array array

val mean : t -> float array
(** The mean answer [r̄ = 1·P] (expected count per group); minimizes the
    expected squared distance over all real vectors. *)

val variance : t -> float
(** [Σ_v Var(r_v) = Σ_{i,v} P.(i).(v)(1 - P.(i).(v))]: the irreducible part
    of the expected squared distance. *)

val expected_sq_dist : t -> float array -> float
(** Exact [E‖c - r‖²  =  ‖c - r̄‖² + variance] (bias–variance identity). *)

val median : t -> int array * float array
(** The {e exact} median answer: the possible count vector closest to [r̄],
    a min-cost flow with convex per-unit group costs [2u - 1 - 2·r̄_v] for
    the u-th unit of group [v], solved by successive shortest paths whose
    search runs over the [m] groups: O(min(n·s, min(n, m)·m)) per tuple
    ([s] the support size), on flat arrays of O(n·s + min(n, m)·m) ints,
    never more than the input, allocated once per call.
    Equal marginal costs go to the lowest group index.
    Returns a witness assignment (tuple → group, a possible world realizing
    the vector) and the count vector.

    Note: the paper reaches this vector through Lemma 3 + Theorem 5 and
    bounds its quality by a factor 4 (Corollary 2); by the bias–variance
    identity the closest possible vector in fact {e is} the exact median,
    so the measured ratio is 1 (see EXPERIMENTS.md E8). *)

val median_paper_network : t -> int array * float array
(** Theorem 5's construction verbatim: each group [v] gets a fixed-flow edge
    [e1] of value ⌊r̄_v⌋ (lower bound = upper bound) and a unit edge [e2] of
    cost (⌈r̄_v⌉-r̄_v)² - (⌊r̄_v⌋-r̄_v)², shifted to be non-negative (every
    flow saturates the same number of e2 edges, so the argmin is
    unchanged); solved with the lower-bound min-cost-flow reduction
    ([Min_cost_flow.solve_bounded]).  Restricted to the floor/ceil vectors
    of Lemma 3; the independent reference for {!median}. *)

val is_possible : t -> int array -> bool
(** Is the count vector a possible answer?  Checked with a Hopcroft–Karp
    matching of tuples to (group, slot) pairs. *)

val counts_of_assignment : t -> int array -> float array
(** Count vector of a tuple→group assignment. *)
