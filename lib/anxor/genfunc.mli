(** Generating functions on and/xor trees (paper §3.3, Theorem 1).

    Every engine evaluates the same recursion over the flat {!Arena.t} of a
    tree [T] with a leaf assignment [s]:

    - leaf [l]     → [s l]
    - xor node     → [(1 - Σ p_i) + Σ p_i · F_i]
    - and node     → [Π F_i]

    in a polynomial semiring chosen per use-case.  By Theorem 1, the
    coefficient of a monomial [Π x_j^{i_j}] in the result is the probability
    that the possible world contains exactly [i_j] leaves assigned [x_j], for
    every [j].

    The walk keeps its frames on the heap (no OCaml-stack recursion, so
    arbitrarily deep trees evaluate) and folds children left to right:
    [mul] under [And], [add]/[scale] seeded with the residual under [Xor]
    ([1 - Σp], clamped at 0 for an over-full node up to the [1 + 1e-9]
    bound, as possible-world enumeration gives it).  The leaf callback
    receives the depth-first leaf index, the numbering of [Tree.index] and
    [Arena.leaf_key]/[Arena.leaf_value]. *)

type 'p ops = {
  const : float -> 'p;
  add : 'p -> 'p -> 'p;
  mul : 'p -> 'p -> 'p;
  scale : float -> 'p -> 'p;
  one : 'p;
}
(** A polynomial semiring; pass a custom one to {!eval}. *)

val eval : 'p ops -> (int -> 'p) -> Arena.t -> 'p

val univariate : ?trunc:int -> (int -> Consensus_poly.Poly1.t) -> Arena.t -> Consensus_poly.Poly1.t
(** Generating function with one variable.  [trunc] caps the degree of all
    intermediate products.  With [s = fun _ -> Poly1.x] the coefficient of
    [x^i] is [Pr(|pw| = i)] (Example 1). *)

val size_distribution : Arena.t -> Consensus_poly.Poly1.t
(** Distribution of the possible-world size: Example 1 of the paper. *)

val subset_size_distribution : (int -> bool) -> Arena.t -> Consensus_poly.Poly1.t
(** [subset_size_distribution mem a]: coefficient [i] is
    [Pr(|pw ∩ S| = i)] for [S] the leaf indices satisfying [mem]
    (Example 2). *)

val bipoly : ?trunc:int -> (int -> Consensus_poly.Bipoly.t) -> Arena.t -> Consensus_poly.Bipoly.t
(** Engine for functions linear in a second variable [y], i.e. dual numbers
    [a + b·ε] over univariate polynomials: the O(nk) rank-distribution
    workhorse (Example 3), and Jaccard's Lemma 1 (§4.2), which maps the
    leaves of a world to [1 + ε] so that [b] is the derivative at 1 of
    their variable. *)

