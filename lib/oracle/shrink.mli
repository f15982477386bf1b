(** Shrink reductions of failing consensus fuzz cases.

    The smallest local reductions of a case — drop one leaf (xor mass
    becomes residual, preserving the remaining leaves' distribution),
    normalize the tree, lower [k], drop a matrix row or group.
    {!Campaign.shrink} keeps the first reduction that still fails, until a
    fixpoint. *)

val candidates : Corpus.case -> Corpus.case list
(** The one-step reductions of a case, largest reduction first. *)
