(** Structural normalization and distribution comparison for and/xor
    trees, plus the answer-preserving rewrites the oracle applies. *)

val simplify : 'a Tree.t -> 'a Tree.t
(** Normalize without changing the leaf-set distribution:
    - [And \[t\]] → [t]; nested [And]s flatten;
    - single-edge probability-1 [Xor] collapses;
    - [Xor] edges leading to empty subtrees ([And \[\]]) merge into the
      residual mass;
    - nested [Xor (p, Xor ...)] distributes.  *)

val is_equivalent : ?limit:int -> 'a Tree.t -> 'a Tree.t -> bool
(** Distribution equality by merged enumeration (tests / small trees):
    both trees induce the same probability on every leaf multiset, with
    leaves compared structurally.  Payloads must identify leaves
    unambiguously. *)

(** {1 Metamorphic rewrites (differential-testing layer)}

    Answer-preserving instance rewrites used by the oracle/fuzzing
    subsystem ([lib/oracle]): each preserves the possible-world
    distribution at the documented level, so an optimized consensus
    algorithm must give equivalent answers on the rewritten instance. *)

val shuffle_siblings : Consensus_util.Prng.t -> 'a Tree.t -> 'a Tree.t
(** Recursively permute the children of every [And] node and the edges of
    every [Xor] node.  The distribution over leaf {e sets} is unchanged;
    depth-first leaf indices generally are not. *)

val pad_absent : copies:int -> 'a Tree.t -> 'a Tree.t
(** Conjoin [copies] empty [Xor] components (zero-probability tuples whose
    edges have been dropped): the distribution is untouched, but every
    traversal must cope with childless xor nodes. *)

val split_leaf : Consensus_util.Prng.t -> 'a Tree.t -> 'a Tree.t
(** Duplicate one random leaf into two mutually exclusive copies that halve
    its probability (x-tuple duplication, Figure 1's block encoding).  The
    distribution over payload {e multisets} is preserved — key-level
    answers (top-k, rankings, clusterings) are invariant — but leaf-level
    answers are not, and the duplicated payload repeats its key and value
    (callers must tolerate duplicate scores). *)

val merge_twin_edges : 'a Tree.t -> 'a Tree.t
(** Inverse of {!split_leaf}: within every [Xor] node, merge edges whose
    subtrees are structurally equal by summing their probabilities (first
    occurrence keeps its place).  Preserves the payload-{e multiset}
    distribution to the same level as {!split_leaf} — leaf indices shift
    when twins exist. *)
