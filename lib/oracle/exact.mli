(** Exact brute-force oracle: consensus answers straight from Definition 1.

    Every optimized algorithm in this repository computes
    [argmin_c E d(c, answer(pw))] by some closed form; this module computes
    the same argmin by enumerating the possible worlds of the and/xor tree
    ({!Consensus_anxor.Worlds}), evaluating the distance metric against
    every world, and searching the candidate space exhaustively.  It shares
    {e no} probability computation with the optimized code paths — only the
    combinatorial distance definitions — so a disagreement implicates one
    side or the other, not a common substrate.

    Exponential everywhere by design: intended for instances up to ~18
    leaves (expectations) and smaller candidate spaces (argmins); the
    size guards raise [Invalid_argument] beyond the supported budget. *)

open Consensus_anxor
module Api = Consensus.Api

type t
(** A prepared instance: the merged possible worlds of one database, with
    per-world projections (leaf masks, top-k answers, rank positions,
    clusterings) computed lazily per family. *)

val prepare : ?max_leaves:int -> Db.t -> t
(** Enumerate and merge the possible worlds.  [max_leaves] (default 18)
    bounds the instance; raises [Invalid_argument] beyond it. *)

val db : t -> Db.t

val num_worlds : t -> int
(** Distinct possible leaf sets with nonzero probability. *)

val total_probability : t -> float
(** Σ of world probabilities — 1 up to float tolerance (asserted by the
    oracle's own test suite, not here). *)

val marginal : t -> int -> float
(** [marginal t i]: Σ of the probabilities of the worlds containing leaf
    [i] — the ground truth for [Db.marginal]. *)

(** {1 Answers} *)

(** Oracle-side answer representation: the payload of {!Api.answer} without
    the [expected] lists. *)
type answer =
  | World of int list  (** sorted leaf indices *)
  | Topk of int array  (** ordered keys *)
  | Rank of int array  (** permutation of all keys *)
  | Counts of float array  (** group-by count vector *)
  | Clustering of int array  (** labels by key position *)

val of_api : Api.answer -> answer
(** Project an optimized answer (drop its [expected] list). *)

val expected : t -> Api.query -> answer -> float
(** Expected distance of a candidate answer under the query's target
    metric, by enumeration over the prepared worlds. *)

val expected_all : t -> Api.query -> answer -> (string * float) list
(** Every metric the optimized answer's [expected] list reports
    ({!Api.answer_expected}), under the same names and in the same order,
    each by {!expected}.  Aggregate queries ignore [t]: their instance is
    the query's matrix. *)

val solve : t -> Api.query -> answer * float
(** Exhaustive argmin: one optimal answer and the optimal expected
    distance.  Mean flavors search the full answer space (all leaf subsets,
    all ordered k-tuples of keys, all permutations, all set partitions);
    median flavors search the possible answers only.  Raises
    [Invalid_argument] when the candidate space exceeds the brute-force
    budget ({!solvable} is the preflight check). *)

val solvable : t -> Api.query -> bool
(** Would {!solve} accept the instance?  (Candidate-space size guard.) *)

(** {1 Aggregates (§6.1)}

    Aggregate instances are matrices, not trees; they bypass {!prepare}. *)

val solve_aggregate : float array array -> Api.flavor -> float array * float
(** Optimal count vector and its expected squared distance, by enumerating
    all [mⁿ] tuple→group assignments.  Raises [Invalid_argument] beyond
    ~200k assignments. *)

val expected_aggregate : float array array -> float array -> float
(** Expected squared distance of a candidate count vector, likewise. *)

val aggregate_solvable : float array array -> bool
