(** Consensus clustering over an uncertain attribute (paper §6.2).

    Each possible world clusters the keys by equality of their (uncertain)
    value attribute; keys absent from the world form one artificial cluster.
    The distance between clusterings is the number of unordered key pairs
    clustered together in one and separated in the other.  The mean
    clustering minimizes the expected distance to the world's clustering.

    A clustering is an array indexed by {e key position} (the order of
    [Db.keys]) whose entries are arbitrary cluster labels. *)

open Consensus_anxor

type clustering = int array

type t
(** Pre-computed co-occurrence weights of an instance. *)

val make : ?pool:Consensus_engine.Pool.t -> Db.t -> t
(** Compute [w_ij = Pr(key_i, key_j clustered together)] for all pairs via
    pairwise joint probabilities (the generating-function x²-coefficient
    computation of §6.2 specialised to pairs):
    [Σ_a Pr(i.A = a ∧ j.A = a) + Pr(both absent)].  Each key's leaves, key
    marginal, leaf values and outermost xor nodes ({!Db.outer_xor}) are
    read once; a key pair then takes one pass over its alternative pairs,
    with an O(1) joint for leaves under different outermost xor nodes and
    {!Db.pair_marginal} otherwise.  Every weight is bit-identical to
    [Db.key_pair_joint ~f:(same value) +. Db.key_pair_absent] clamped into
    [\[0, 1\]].  The O(n²) pair sweep is parallelized over rows on [pool]
    (default: the global engine pool), which is retained for
    {!best_of_worlds}. *)

val db : t -> Db.t

val pool : t -> Consensus_engine.Pool.t
(** The engine pool the instance computes on (useful for metrics). *)

val num_keys : t -> int
val weight : t -> int -> int -> float
(** Co-occurrence probability by key positions, in [\[0, 1\]]: the
    inclusion–exclusion of {!make} can cancel a zero weight to about
    -1e-16, and each weight is clamped into the unit interval. *)

val expected_dist : t -> clustering -> float
(** [E d(C, C_pw) = Σ_{i<j} (together_C ij ? 1 - w_ij : w_ij)]. *)

val pivot : Consensus_util.Prng.t -> t -> clustering
(** Ailon–Charikar–Newman CC-Pivot on the weighted co-occurrence graph:
    random pivot absorbs every unclustered key with [w > 1/2]; expected
    constant-factor approximation under the probability constraint.  Each
    round's pivot is the [(Prng.int rng u)]-th of the [u] unassigned keys,
    in ascending key-position order; a run costs O(n) words. *)

val best_pivot_of : Consensus_util.Prng.t -> trials:int -> t -> clustering
(** Best of several pivot runs under {!expected_dist}. *)

val local_search : t -> clustering -> clustering
(** Move single keys between clusters (or to fresh singletons) until no move
    improves the expected distance by more than 1e-12.  Each key tries a
    fresh label first, then the used labels in ascending order; a candidate
    costs O(1) and a move O(n).  Raises [Invalid_argument] on a clustering
    of the wrong size. *)

val best_of_worlds :
  Consensus_util.Prng.t -> samples:int -> t -> clustering
(** Sample possible worlds and return the best induced clustering: the
    sampled analogue of the classic pick-a-input 2-approximation.  Samples
    are drawn from per-sample generators split off [rng] up front and
    scored in parallel on the instance's pool; the answer depends only on
    [rng] and [samples], not on the [jobs] setting. *)

val clustering_of_world : t -> Db.alt list -> clustering
(** The clustering induced by a concrete possible world (absent keys share
    one artificial cluster). *)

val distance : clustering -> clustering -> int
(** Pairwise-disagreement distance between two clusterings of the same
    keys. *)

val normalize : clustering -> clustering
(** Canonical labelling (first occurrence order), for comparisons. *)
