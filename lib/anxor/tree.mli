(** Probabilistic and/xor trees (paper §3.2, Definition 1).

    A tree describes a distribution over subsets of its leaves (the possible
    worlds): an [Xor] node picks at most one child (child [i] with the
    probability on its edge, or nothing with the residual probability); an
    [And] node takes the union of all its children's outcomes; a [Leaf]
    contributes itself.

    The model subsumes tuple-independent databases, x-tuples / p-or-sets and
    block-independent-disjoint (BID) tables, and can encode arbitrary finite
    possible-world distributions (Figure 1 of the paper). *)

type 'a t = private
  | Leaf of 'a
  | And of 'a t list
  | Xor of (float * 'a t) list
      (** Children with edge probabilities; probabilities are positive and
          sum to at most 1 (+ tolerance). *)

val leaf : 'a -> 'a t

val and_ : 'a t list -> 'a t
(** Coexistence node.  [and_ []] is the empty world. *)

val xor : (float * 'a t) list -> 'a t
(** Mutual-exclusion node.  Raises [Invalid_argument] if an edge probability
    is negative, non-finite, or the sum exceeds 1 beyond tolerance.  Edges
    with probability 0 are dropped. *)

val independent : (float * 'a) list -> 'a t
(** [independent tuples] builds the and/xor tree of a tuple-independent
    database: an [And] of one singleton [Xor] per tuple. *)

val bid : (float * 'a) list list -> 'a t
(** [bid blocks] builds a block-independent-disjoint database: an [And] of
    one [Xor] per block, whose alternatives are mutually exclusive. *)

val num_leaves : 'a t -> int
val leaves : 'a t -> 'a list
(** Leaves in depth-first order. *)

val num_nodes : 'a t -> int

val map : ('a -> 'b) -> 'a t -> 'b t

val index : 'a t -> int t * 'a array
(** Replace each leaf payload with its depth-first index and return the
    payload array: [index t = (it, a)] with [a.(i)] the payload of leaf [i]. *)

val indexed : 'a t -> (int * 'a) t
(** Pair each leaf payload with its depth-first index. *)

val filter_leaves : ('a -> bool) -> 'a t -> 'a t
(** Remove leaves not satisfying the predicate.  Xor edges whose subtree
    loses all leaves keep their probability mass but produce the empty set,
    preserving the distribution of the remaining leaves (used by the median
    top-k dynamic program, Theorem 4). *)

val count_worlds : 'a t -> float
(** Upper bound (exact absent duplicate world-sets) on the number of distinct
    possible worlds, as a float to tolerate overflow. *)

val world_is_possible : eq:('a -> 'a -> bool) -> 'a t -> 'a list -> bool
(** [world_is_possible ~eq t w]: does the leaf multiset [w] occur as a
    possible world of [t] with non-zero probability?  Exponential in the
    worst case; intended for tests and small instances. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** S-expression-ish rendering for debugging. *)
