(** A probabilistic relation [R(K; A)] represented by an and/xor tree
    (paper §3.1–3.2).

    A leaf is a tuple {e alternative}: a (key, value) pair where the value
    doubles as the ranking score.  The key is the possible-worlds key: no
    world may contain two alternatives with the same key (Definition 1's key
    constraint), which {!create} verifies. *)

type alt = { key : int; value : float }
(** One tuple alternative.  [value] is the (score) attribute. *)

type t
(** A validated probabilistic relation. *)

val create : ?check:bool -> alt Tree.t -> t
(** Validate ([check] defaults to [true]: key constraint; probability
    constraints are enforced by [Tree.xor] already) and pre-compute leaf
    indexing and marginals.  Raises [Invalid_argument] on violation.
    The tree is flattened into an {!Arena.t} — the canonical in-memory
    representation the kernels run on. *)

val of_arena : ?check:bool -> Arena.t -> t
(** Wrap an arena (e.g. from [Sexp_io.parse_stream]) without ever building a
    pointer tree; {!tree} materializes one lazily if asked. *)

val independent : (int * float * float) list -> t
(** [independent [(key, value, prob); ...]] — tuple-independent database. *)

val bid : (int * (float * float) list) list -> t
(** [bid [(key, [(prob, value); ...]); ...]] — block-independent-disjoint
    database: per key, a set of mutually exclusive alternatives. *)

val arena : t -> Arena.t
(** The flat arena the kernels evaluate over. *)

val tree : t -> alt Tree.t
(** The pointer-tree view, for construction, rewrites and the enumeration
    oracles; the kernels run on {!arena}.  Materialized from the arena on
    first use (and memoized); safe to call from pool workers.  Leaf order
    is the depth-first leaf index order ([Tree.index]). *)

val num_alts : t -> int
(** Number of leaves (alternatives). *)

val num_keys : t -> int
val keys : t -> int array
(** Distinct keys, sorted increasingly. *)

val key_index : t -> int -> int option
(** [key_index db key]: the index of [key] in {!keys}, by binary search. *)

val key_rows : t -> int array
(** Per leaf index, the index of the leaf's key in {!keys}.  Built once per
    database on first use and shared, not copied: treat as read-only.
    Safe to call from pool workers. *)

val score_order : t -> int array
(** Leaf indices by decreasing value, NaN values last in leaf order; ties
    in no stated order.  Sorted once per database on first use and shared,
    not copied: treat as read-only.  Safe to call from pool workers. *)

val alt : t -> int -> alt
(** Alternative payload by leaf index. *)

val alts_of_key : t -> int -> int list
(** Leaf indices holding the given key. *)

val marginal : t -> int -> float
(** [marginal db i]: probability that leaf [i] is present. *)

val marginal_array : t -> float array
(** The marginals of every leaf, indexed by leaf index — the memoized array
    behind {!marginal}, shared not copied: treat as read-only.  For kernels
    that cannot afford a boxed float return per lookup. *)

val key_marginal : t -> int -> float
(** Probability that some alternative of the key is present. *)

val pair_marginal : t -> int -> int -> float
(** [pair_marginal db i j]: probability that leaves [i] and [j] are both
    present.  O(depth).  [pair_marginal db i i = marginal db i]. *)

val outer_xor : t -> int -> int
(** [outer_xor db i]: the arena node id of the outermost xor node on leaf
    [i]'s root path, or [-1] when no xor node lies above it.  Two leaves
    whose outer xor nodes differ, or either of which has none, share no
    xor edge: {!pair_marginal} returns exactly [marginal i *. marginal j]
    for them. *)

val pair_absent : t -> int -> int -> float
(** Probability that neither leaf is present. *)

val key_pair_absent : t -> int -> int -> float
(** Probability that neither of two distinct keys has any alternative
    present. *)

val key_pair_joint :
  t -> int -> int -> f:(alt -> alt -> bool) -> float
(** [key_pair_joint db k1 k2 ~f]: probability that keys [k1] and [k2] are
    both present, with alternatives [a1], [a2] satisfying [f a1 a2].
    With {!key_pair_absent}, the pair-by-pair definition of the clustering
    co-occurrence weights (§6.2). *)

val is_independent : t -> bool
(** True iff the tree has the tuple-independent shape: an [And] of singleton
    [Xor] nodes over leaves (every leaf an independent Bernoulli event). *)

val is_bid : t -> bool
(** True iff the tree has the block-independent-disjoint {e shape}: an
    [And] of [Xor] nodes whose children are leaves.  Note that a block's
    leaves may hold {e distinct} keys (the x-tuples model); use
    {!xor_blocks} to recover the mutual-exclusion groups. *)

val xor_blocks : t -> int array option
(** For BID-shaped trees: the xor-block index of every leaf (in leaf-index
    order).  Leaves in the same block are mutually exclusive regardless of
    their keys.  [None] when the tree is not BID-shaped. *)

val digest : t -> string
(** Hex content hash of the and/xor tree (structure, keys, values and edge
    probabilities — exact float bits).  Structurally equal databases share
    it; computed once per database and memoized.  Used as the cache key
    prefix by the shared probability cache ([Consensus_cache.Cache]). *)

val scores_distinct : t -> bool
(** True iff all leaf values are pairwise distinct (the paper's tie-freeness
    assumption for ranking), equality being [Float.compare]'s: NaN equals
    NaN and [-0.] equals [0.].  Read off {!score_order}; memoized. *)

val pp : Format.formatter -> t -> unit
