(** Differential fuzz driver.

    Generates small random instances per consensus family and subjects each
    to four check layers:

    - {e config grid}: {!Api.run} under cache off/on and jobs 1/N must
      return structurally identical answers (the engine's determinism
      contract);
    - {e evaluators}: every closed-form expected distance an answer reports
      must match the oracle's possible-world enumeration
      ({!Exact.expected_all});
    - {e optimality}: the reported optimum must equal the brute-force
      oracle's ({!Exact.solve}) for exact algorithms, and stay within a
      factor-2 ratio bound for the heuristic paths (top-k Kendall mean,
      clustering) — the paper-level approximation guarantees; every leaf's
      [Db.marginal] must match the oracle's world sum ({!Exact.marginal});
    - {e metamorphic}: rebuilding the arena from the database's pointer
      tree (the form rewrites and shrinking work on) must reproduce its
      digest; and on every applicable rewrite ({!Metamorph.all}) of the
      instance, the optimal target value must be unchanged (checked
      through {!Api.run} for exact queries and through the oracle for
      heuristic ones).

    Campaigns run on the shared loop ({!Campaign}): a failing case is
    greedily shrunk ({!Shrink.candidates}) and, when a corpus directory is
    configured, promoted to a regression file that {!Campaign.replay} —
    wired into [dune runtest] — checks forever after.  Everything is
    deterministic in the configured seed. *)

module Api = Consensus.Api
module Pool = Consensus_engine.Pool

(** {1 Families} *)

type family = World | Topk | Rank | Aggregate | Cluster

val all_families : family list
val family_name : family -> string

(** {1 Case generation and checking} *)

val gen_case : Consensus_util.Prng.t -> family -> max_leaves:int -> Corpus.case
(** One random instance of the family, sized within the oracle's
    per-family budgets (leaf counts are clamped below [max_leaves] where a
    family's candidate space grows faster). *)

val check_case : pool:Pool.t -> pool1:Pool.t -> Corpus.case -> Campaign.verdict
(** Run every applicable check layer.  Deterministic in the case content
    (rewrite randomness is seeded from the serialized case).  Exceptions
    escaping {!Api.run} are themselves reported as a failing check
    ([exception]).  [pool] carries the multi-job grid leg, [pool1] must be
    a [jobs = 1] pool. *)

(** {1 Campaigns} *)

val describe : Corpus.case -> string
(** One-line summary for reports, e.g. ["world-jaccard-median, 6 leaves"]. *)

val family : pool:Pool.t -> pool1:Pool.t -> Corpus.case Campaign.family
(** {!Corpus.codec}, {!check_case} on these pools and {!Shrink.candidates}. *)

type config = {
  seed : int;
  iters : int;  (** cases per family *)
  max_leaves : int;
  families : family list;
  corpus_dir : string option;  (** promote shrunk failures here *)
}

val default_config : config
(** seed 0, 100 iterations, 12 leaves, every family, no promotion. *)

val run : ?pool:Pool.t -> ?pool1:Pool.t -> config -> Corpus.case Campaign.report
(** {!Campaign.run} over the configured families, in order, each drawing
    from its own split of the seeded generator.  Pools are created (jobs
    auto / jobs 1) unless supplied. *)
