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

    A failing case is greedily shrunk ({!Shrink.shrink}) and, when a corpus
    directory is configured, promoted to a regression file that
    {!replay} — wired into [dune runtest] — checks forever after.
    Everything is deterministic in the configured seed. *)

module Api = Consensus.Api
module Pool = Consensus_engine.Pool

(** {1 Families} *)

type family = World | Topk | Rank | Aggregate | Cluster

val all_families : family list
val family_name : family -> string
val family_of_string : string -> (family, string) result

(** {1 Case generation and checking} *)

val gen_case : Consensus_util.Prng.t -> family -> max_leaves:int -> Corpus.case
(** One random instance of the family, sized within the oracle's
    per-family budgets (leaf counts are clamped below [max_leaves] where a
    family's candidate space grows faster). *)

type verdict = {
  checks : int;  (** individual invariant checks performed *)
  failure : (string * string) option;  (** (check name, detail) *)
}

val check_case : pool:Pool.t -> pool1:Pool.t -> Corpus.case -> verdict
(** Run every applicable check layer.  Deterministic in the case content
    (rewrite randomness is seeded from the serialized case).  Exceptions
    escaping {!Api.run} are themselves reported as a failing check
    ([exception]).  [pool] carries the multi-job grid leg, [pool1] must be
    a [jobs = 1] pool. *)

(** {1 Campaigns} *)

type config = {
  seed : int;
  iters : int;  (** cases per family *)
  max_leaves : int;
  families : family list;
  corpus_dir : string option;  (** promote shrunk failures here *)
}

val default_config : config
(** seed 0, 100 iterations, 12 leaves, every family, no promotion. *)

type discrepancy = {
  case : Corpus.case;
  check : string;
  detail : string;
  shrunk : Corpus.case;
  shrink_steps : int;
  path : string option;  (** corpus file if promoted *)
}

type report = {
  cases : int;
  total_checks : int;
  discrepancies : discrepancy list;
}

val run : ?pool:Pool.t -> ?pool1:Pool.t -> config -> report
(** Fuzz campaign over the configured families.  Pools are created (jobs
    auto / jobs 1) unless supplied.  Obs counters [fuzz_cases_total],
    [fuzz_checks_total], [fuzz_discrepancies_total] and
    [fuzz_shrink_steps_total] record progress when tracing is enabled. *)

val replay : ?pool:Pool.t -> ?pool1:Pool.t -> dir:string -> unit -> (string * string * string) list
(** Re-check every corpus case of a directory; returns the failures as
    [(file, check, detail)].  Empty list = corpus clean. *)
