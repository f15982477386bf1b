(** Top-k answer lists and the distance metrics between them (paper §5.1,
    following Fagin, Kumar and Sivakumar, "Comparing top k lists").

    A top-k answer is an ordered array of distinct keys, highest-ranked
    first.  Lists shorter than [k] arise from worlds with fewer than [k]
    tuples and are handled by all metrics. *)

type t = int array

val of_world : k:int -> Consensus_anxor.Db.alt list -> t
(** Keys of the [k] highest-valued alternatives of a possible world. *)

val position : t -> int -> int option
(** 1-based position of a key, if present. *)

val mem : t -> int -> bool

val sym_diff : k:int -> t -> t -> float
(** Normalized symmetric difference [|τ1 Δ τ2| / 2k]; ignores order. *)

val intersection : k:int -> t -> t -> float
(** Fagin's intersection metric: the average over depths [i = 1..k] of the
    normalized symmetric difference of the two depth-[i] prefixes. *)

val footrule : k:int -> t -> t -> float
(** Spearman's footrule with location parameter [k+1] (the paper's [dF]):
    missing elements are placed at position [k+1]. *)

val kendall : k:int -> t -> t -> float
(** The minimizing Kendall distance [K_min]: the number of unordered pairs
    whose order must disagree in every pair of full-ranking extensions. *)

val validate : k:int -> t -> unit
(** Raise [Invalid_argument] on duplicate keys or length > k. *)

val pp : Format.formatter -> t -> unit
