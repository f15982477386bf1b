(** Flat int-indexed arena representation of an and/xor tree.

    A structure-of-arrays twin of {!Tree.t} built for massive databases: node
    kinds, CSR child ranges, xor edge probabilities and leaf payloads all
    live in flat arrays, so the generating-function kernels can walk the
    model without pointer chasing, per-node allocation, or OCaml-stack
    recursion (see docs/ARENA.md for the layout and its invariants).

    Node ids are depth-first pre-order: [root] is the smallest id of the
    component, children carry larger ids than their parent, and leaf indices
    increase left-to-right, matching [Tree.index]'s depth-first numbering.

    The record fields are exposed read-only ([private]) for the kernels in
    {!Genfunc} and {!Marginals}; treat every array as immutable. *)

type t = private {
  kinds : Bytes.t;  (** per node: 0 leaf, 1 and, 2 xor *)
  child_start : int array;  (** per node: first index into [children] *)
  child_count : int array;  (** per node: number of children *)
  children : int array;  (** concatenated child node ids, in tree order *)
  eprob : float array;
      (** per node: probability of the xor edge above it (1.0 under an [And]
          node and for the root) *)
  leaf_ix : int array;  (** per node: depth-first leaf index, or -1 *)
  leaf_key : int array;  (** per leaf, indexed by leaf index *)
  leaf_value : float array;  (** per leaf *)
  root : int;
  num_leaves : int;
}

val kind_leaf : int
val kind_and : int
val kind_xor : int

val num_nodes : t -> int
val num_leaves : t -> int
val root : t -> int

val kind : t -> int -> int
(** Kind of a node id ({!kind_leaf} / {!kind_and} / {!kind_xor}). *)

val is_leaf : t -> int -> bool

val depth : t -> int
(** Edges on the longest root-leaf path; 0 for a single leaf.  Iterative. *)

val marginals : t -> float array
(** Presence probability per leaf index: product of the xor edge
    probabilities on the leaf's root path. *)

val leaf_paths : t -> (int * int * float) array array
(** Per leaf, the xor edges on its root path as
    [(xor node id, child position, edge probability)], outermost first. *)

val check_keys : t -> (unit, string) result
(** The key constraint of Definition 1: the least common ancestor of two
    leaves holding the same key must be an xor node, so that no possible
    world contains the same key twice. *)

val bid_shape : t -> singleton:bool -> bool
(** An [And] of [Xor] nodes over leaves; [singleton] additionally requires
    one alternative per block (the tuple-independent shape). *)

val xor_blocks : t -> int array option
(** For BID-shaped arenas: the xor block index of every leaf. *)

val digest : t -> string
(** Hex content hash over the flat arrays — exact structure, keys and float
    bits.  Deterministic for structurally equal databases. *)

val of_tree : key:('a -> int) -> value:('a -> float) -> 'a Tree.t -> t
(** Build an arena from a tree, extracting each leaf's key and value.
    Iterative: safe on arbitrarily deep or wide trees. *)

val to_tree : leaf:(key:int -> value:float -> 'a) -> t -> 'a Tree.t
(** Rebuild a pointer tree (iteratively); [leaf] is invoked in depth-first
    leaf order.  [to_tree (of_tree t)] is structurally identical to [t]. *)

(** Incremental construction, used by the streaming sexp parser to append
    nodes without materializing any intermediate tree.  Usage mirrors the
    textual syntax: [open_and]/[open_xor] … children … [close]; children of
    an xor node must carry [?prob].  Probability validation matches
    [Tree.xor]: negative or non-finite edge probabilities and block mass
    above [1 + 1e-9] raise [Invalid_argument]; zero-probability edges are
    dropped (the whole subtree below them is discarded). *)
module Builder : sig
  type arena := t
  type t

  val create : ?initial_capacity:int -> unit -> t
  val open_and : ?prob:float -> t -> unit
  val open_xor : ?prob:float -> t -> unit
  val leaf : ?prob:float -> t -> key:int -> value:float -> unit
  val close : t -> unit

  val finish : t -> arena
  (** Repack into the CSR arena.  Raises [Invalid_argument] unless exactly
      one complete root node was built. *)
end
