(** Rank-aggregation toolkit over pairwise-preference matrices.

    An instance is a matrix [pref] with [pref.(i).(j)] the weight (for the
    probabilistic instances of §5.5: the probability [Pr(r(i) < r(j))]) of
    ordering item [i] before item [j].  The cost of a permutation is the
    total weight of the pairs it orders against the preference:
    [cost σ = Σ_{a < b} pref.(σ.(b)).(σ.(a))] — exactly the expected
    Kendall-tau distance to the input rankings when [pref] is a fraction /
    probability matrix (Kemeny aggregation). *)

val cost : float array array -> int array -> float
(** Expected Kendall cost of the permutation (item ids in order). *)

val condorcet_components : float array array -> int array array
(** The strongly connected components of "a may precede b", which holds
    unless [pref.(b).(a) > pref.(a).(b) +. 1e-15], in their forced order
    (every item of a component is preferred before every item of a later
    one by more than 1e-15), each in increasing item order.  O(n²) by
    bitset reachability; requires [n] below the int width. *)

val kemeny_exact : float array array -> int array * float
(** Optimal aggregation in O(n² + Σ_c 2^|c|·|c|) time.  The items split
    into their {!condorcet_components} [c]; by the extended Condorcet
    criterion every optimal order keeps them in their forced order.  A Held–Karp bitmask DP orders each component of two or more
    items in O(2^|c|·|c|) time and O(2^|c| + |c|·2^⌈|c|/2⌉) memory: the
    weight of appending an item after a set is two loads from per-row
    subset-sum tables over the low and high halves of the component.
    Inside a component the highest item goes last unless a lower one is
    cheaper by more than 1e-15.  The cost is summed along the order as
    one DP over all items would sum it, so its bits do not depend on the
    split.  Requires [n <= 22].  Polls the ambient
    {!Consensus_util.Deadline} token at entry and every 4096 subsets.
    The small-instance oracle used in tests and benches. *)

val pivot :
  Consensus_util.Prng.t -> float array array -> int array * float
(** Ailon–Charikar–Newman KwikSort: recursively partition around a random
    pivot using majority preference.  Expected constant-factor approximation
    for matrices satisfying the probability constraint
    [pref.(i).(j) + pref.(j).(i) <= 1]. *)

val best_pivot_of :
  Consensus_util.Prng.t -> trials:int -> float array array -> int array * float
(** Best of [trials] independent KwikSort runs. *)

val local_search : float array array -> int array -> int array * float
(** Single-item-move local search to a local optimum: repeatedly remove an
    item and reinsert it at its best position while the cost improves. *)
