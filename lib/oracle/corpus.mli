(** Regression corpus: the consensus families' case codec.

    Every discrepancy the fuzz driver finds is shrunk and promoted into a
    corpus directory ({!Campaign.save}); [dune runtest] replays the
    checked-in corpus so a fixed bug stays fixed.  A case file is
    line-oriented:

    {v
    ; free-form comment lines
    query topk k=2 metric=symdiff flavor=mean
    (and (xor (0.5 (leaf 1 2.))) (xor (0.25 (leaf 2 1.))))
    v}

    The [query] line uses {!Consensus.Query_text} syntax; the remainder is
    the and/xor tree ({!Consensus_anxor.Sexp_io}) — or, for aggregate
    queries ([query aggregate flavor=...]), whitespace-separated matrix
    rows, since the matrix travels inside the query itself. *)

open Consensus_anxor
module Api = Consensus.Api

type case = { query : Api.query; db : Db.t }
(** One replayable instance.  For aggregate queries [db] is
    {!placeholder_db} — {!Api.run} never consults it. *)

val placeholder_db : Db.t
(** One-leaf stand-in database carried by aggregate cases. *)

val to_string : case -> string
val of_string : string -> (case, string) result
(** Inverses: [of_string (to_string c)] reproduces [c] (the tree bit-for
    -bit, queries structurally). *)

val codec : case Campaign.codec
(** The codec above under the [case-] file-name prefix. *)
