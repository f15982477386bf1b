(** Differential fuzzing of the lineage-inference stack.

    Every generated case ({!Consensus_workload.Lineage_gen} plan shapes)
    replays [Inference.probability] across its routes — read-once fast
    path, Shannon with and without component decomposition — and against
    the brute-force possible-worlds oracle (on ≤ 18-variable instances)
    and a seeded Monte-Carlo estimate, plus metamorphic scrambles that
    must preserve both the read-once verdict and the probability.
    Campaigns run on the shared loop ({!Campaign}): failures shrink
    greedily and promote into the regression corpus as [lcase-*.txt]
    files, replayed forever after by the [@fuzz] alias. *)

open Consensus_pdb

type case = { shape : string; reg : Lineage.Registry.r; lineage : Lineage.t }

val of_gen : Consensus_workload.Lineage_gen.case -> case

(** {1 Serialization} ([lcase-*.txt], sharing the core corpus directory) *)

val to_string : case -> string
val of_string : string -> (case, string) result

val codec : case Campaign.codec
(** The codec above under the [lcase-] file-name prefix. *)

(** {1 Checking} *)

val brute_var_limit : int
(** Variable-count gate for the possible-worlds and pure-Shannon layers
    (18). *)

val brute : Lineage.Registry.r -> Lineage.t -> float
(** Possible-worlds enumeration (exponential; respects BID blocks). *)

val check_case :
  ?readonce:bool ->
  ?expect:Consensus_workload.Lineage_gen.expect ->
  case ->
  Campaign.verdict
(** Run every applicable layer.  [readonce] (default true) gates the
    fast-path comparisons — the CLI ablation knob; [expect] (default
    [Unknown]) adds the generator's theory check and is only passed for
    freshly generated cases, never replays.  Deterministic in the case
    content. *)

val candidates : case -> case list
(** One-step structural reductions (child promotion, child drops, constant
    substitution), each strictly smaller than the case's formula. *)

(** {1 Campaigns} *)

val describe : case -> string
(** One-line summary for reports, e.g. ["lineage product, 4 vars, 9 nodes"]. *)

val family : readonce:bool -> case Campaign.family
(** {!codec}, {!check_case} without an expectation, and {!candidates}. *)

type config = {
  seed : int;
  iters : int;
  readonce : bool;  (** exercise the fast-path layers (ablation knob) *)
  corpus_dir : string option;
}

val default_config : config
(** seed 0, 500 iterations, readonce on, no promotion. *)

val run : config -> case Campaign.report
(** {!Campaign.run} over freshly generated cases; each one's first check
    also holds it to the generator's expectation. *)
