(** Possible-world enumeration and sampling for and/xor trees.

    Enumeration runs on the pointer {!Tree.t}.  It is exponential in general
    and is intended as the ground-truth oracle for tests and small
    experiments; every consensus algorithm in this repository is validated
    against it.  Sampling runs on the flat {!Arena.t} and returns depth-first
    leaf indices ([Db.alt] recovers the payloads). *)

val enumerate : ?limit:int -> 'a Tree.t -> (float * 'a list) list
(** All possible worlds with their probabilities, as (probability, leaves in
    depth-first order) pairs.  Worlds produced along distinct choice paths are
    returned separately (probabilities of equal leaf-sets are not merged);
    the probabilities sum to 1.  The list form of {!to_seq}: raises
    [Invalid_argument] once more than [limit] (default [200_000]) worlds
    come out. *)

val enumerate_merged :
  ?limit:int -> 'a Tree.t -> ((int list * 'a list) * float) list
(** Like {!enumerate} on the index-decorated tree, with equal leaf-index sets
    merged (summing probabilities).  Each world is returned as its sorted
    leaf-index list together with the corresponding payloads. *)

val world_probability : ?limit:int -> 'a Tree.t -> int list -> float
(** [world_probability t ids] is the total probability that the world equals
    exactly the leaf-index set [ids] (depth-first indices).  Enumeration
    based. *)

val to_seq : 'a Tree.t -> (float * 'a list) Seq.t
(** {!enumerate}'s worlds, produced lazily with no world list materialized
    and no [limit].  This is the brute-force oracle's workhorse: an instance
    with [2^18] worlds streams through constant memory. *)

val fold : 'a Tree.t -> init:'b -> f:('b -> float -> 'a list -> 'b) -> 'b
(** [fold t ~init ~f] folds [f] over {!to_seq}. *)

val sample : Consensus_util.Prng.t -> Arena.t -> int list
(** Draw one possible world: its leaf indices, increasing (depth-first
    order).  One uniform draw per visited xor node, in depth-first order. *)

val sample_many : Consensus_util.Prng.t -> int -> Arena.t -> int list list

val expectation :
  ?limit:int -> 'a Tree.t -> f:('a list -> float) -> float
(** [expectation t ~f] = E[f(pw)] by exact enumeration. *)

val monte_carlo :
  Consensus_util.Prng.t -> samples:int -> Arena.t -> f:(int list -> float) -> float
(** Monte-Carlo estimate of E[f(pw)]. *)
