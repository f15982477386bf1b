(** Synthetic workload generators.

    The paper has no data sets (it is a theory paper), so every experiment in
    this repository runs on synthetic instances drawn by these generators.
    All generators take an explicit PRNG for reproducibility. *)

open Consensus_anxor

val distinct_scores : Consensus_util.Prng.t -> int -> float array
(** [n] pairwise-distinct scores, uniform in (0, 1000), then perturbed to
    guarantee distinctness. *)

val independent_db :
  ?p_min:float -> ?p_max:float -> Consensus_util.Prng.t -> int -> Db.t
(** Tuple-independent database with [n] tuples, distinct scores, and
    presence probabilities uniform in [\[p_min, p_max\]] (default [0.05,
    0.95]). *)

val bid_db :
  ?max_alts:int ->
  ?forced_fraction:float ->
  Consensus_util.Prng.t ->
  int ->
  Db.t
(** BID database with [n] keys, 1..[max_alts] (default 3) alternatives per
    key and distinct scores.  A [forced_fraction] (default 0.2) of the keys
    have alternative probabilities summing to 1 (the key is certainly
    present). *)

val xtuple_db :
  ?max_alts:int ->
  ?forced_fraction:float ->
  Consensus_util.Prng.t ->
  int ->
  Db.t
(** Like {!bid_db}, but every alternative carries its own key: [n]
    x-tuples, blocks of mutually exclusive tuples with distinct keys.
    Draws from [rng] exactly as {!bid_db} does. *)

val random_tree :
  ?max_depth:int ->
  ?max_fanout:int ->
  Consensus_util.Prng.t ->
  int ->
  Db.alt Tree.t
(** Random and/xor tree with exactly [n] leaves, distinct scores, fresh keys
    at the leaves (so the key constraint holds trivially), alternating
    and/xor structure with random fanout (default max 4) and depth (default
    max 6).  Xor edge probabilities are random and may leave residual mass. *)

val random_tree_db :
  ?max_depth:int -> ?max_fanout:int -> Consensus_util.Prng.t -> int -> Db.t
(** {!random_tree} wrapped in a validated {!Db.t}. *)

val random_keyed_tree :
  ?max_depth:int -> ?max_fanout:int -> Consensus_util.Prng.t -> int -> Db.t
(** Like {!random_tree_db} but leaves under a common xor node may share a
    key (attribute-level uncertainty): each xor node reuses one key for a
    random subset of its leaf children.  The key constraint is preserved by
    construction and re-checked by [Db.create]. *)

val groupby_matrix :
  ?zipf:float -> Consensus_util.Prng.t -> n:int -> m:int -> float array array
(** [n × m] row-stochastic matrix: row [i] is tuple [i]'s distribution over
    the [m] groups (paper §6.1).  Each row has a random support of 1–4
    groups; group popularity is Zipf-skewed with exponent [zipf]
    (default 1.0). *)

val clustering_db :
  ?num_values:int -> ?max_alts:int -> Consensus_util.Prng.t -> int -> Db.t
(** BID-style database for §6.2: [n] keys whose (uncertain) attribute takes
    one of [num_values] (default 5) discrete values encoded as floats.
    Key presence may be uncertain, exercising the artificial
    "absent" cluster. *)

val max2sat :
  Consensus_util.Prng.t -> num_vars:int -> num_clauses:int -> (int * bool) list array
(** Random MAX-2-SAT instance: clause [c] is an array entry holding its two
    literals as (variable, polarity) pairs (§4.1 hardness gadget). *)

val zipf_weights : float -> int -> float array
(** [zipf_weights s m]: normalized Zipf(s) weights over ranks 1..m. *)

(** {1 Small enumerable instances (oracle / fuzzing)}

    Generators with an explicit leaf budget, sized so the brute-force
    oracle ([lib/oracle]) can enumerate every possible world.  Like every
    generator in this module they are pure functions of the [rng] state:
    fuzz failures are bit-reproducible from the seed alone. *)

val small_db : Consensus_util.Prng.t -> max_leaves:int -> Db.t
(** Random small database of a random representation shape —
    tuple-independent, BID, or keyed and/xor tree — with at most
    [max_leaves] leaves. *)

val small_clustering_db :
  ?num_values:int -> Consensus_util.Prng.t -> max_keys:int -> max_leaves:int -> Db.t
(** Small {!clustering_db}: at most [max_keys] keys and [max_leaves]
    alternatives in total. *)

val small_matrix :
  Consensus_util.Prng.t -> max_tuples:int -> max_groups:int -> float array array
(** Small row-stochastic group-by matrix (§6.1 instances). *)
