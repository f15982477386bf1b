(** Unified typed entry point over every consensus family.

    [run db query] evaluates one consensus query against a probabilistic
    database on the multicore engine and returns a structured answer —
    replacing the ad-hoc per-module dispatch that each frontend used to
    re-implement.  The per-module APIs ({!Set_consensus},
    {!Topk_consensus}, {!Rank_consensus}, {!Aggregate_consensus},
    {!Cluster_consensus}) remain the fine-grained interface; this facade
    composes them with the standard algorithm choices of the CLI and the
    experiment harness.

    Accessible both as [Consensus.Engine_api] and under its short alias
    [Consensus.Api]. *)

open Consensus_anxor

module Cache = Consensus_cache.Cache
(** The shared probability cache behind every consensus family (re-exported
    so frontends can flip it with [Api.Cache.set_enabled], size it, and read
    {!Cache.stats} without depending on [consensus_cache] directly).
    Disabled by default; answers are bit-identical either way. *)

(** Detection statistics of the read-once lineage fast path (re-exported
    from [Consensus_pdb.Inference] so frontends can report which inference
    route served their queries without a direct pdb dependency). *)
module Readonce_stats : sig
  val read : unit -> int * int
  (** [(hits, misses)] of root-level read-once detection since the last
      {!reset}: a hit means the lineage probability was served entirely by
      the linear-time factored evaluation, a miss that it fell back to
      Shannon expansion. *)

  val reset : unit -> unit
  (** Reset the counters (also clears the Shannon-expansion tally). *)
end

exception Unsupported of string
(** Raised (with a human-readable reason) when the requested
    metric/flavor combination has no algorithm — e.g. median answers under
    the intersection, footrule or Kendall top-k metrics, whose median
    problems the paper leaves open (§5.3–§5.5).  Frontends should map this
    to a clean nonzero exit, not a crash. *)

(** {1 Typed errors and per-request options}

    The result-returning entry point {!run_result} is the preferred API for
    services and other callers that must not let evaluation exceptions
    escape: every expected failure comes back as a structured
    {!Error.t}.  {!run} remains the thin raising wrapper — existing callers
    compile unchanged.

    Migration: [Api.run db q] becomes
    [match Api.run_result db q with Ok a -> ... | Error e -> ...]; the
    former's [Unsupported] and [Invalid_argument] exceptions are the
    latter's [Error.Unsupported] and [Error.Invalid_input]. *)

module Error : sig
  type t =
    | Unsupported of string
        (** The metric/flavor combination has no algorithm (the exception
            {!Unsupported} carries the same reason string). *)
    | Deadline_exceeded
        (** The request's deadline passed (or it was cancelled) while
            evaluating; the cooperative checks in the engine pool and the
            sequential kernels abandoned the computation early. *)
    | Invalid_input of string
        (** Ill-formed query or database for this family (the
            [Invalid_argument] payload), e.g. non-distinct scores for a
            ranking query or a ragged aggregate matrix. *)

  val to_string : t -> string
  (** One-line human-readable rendering, e.g. ["deadline exceeded"]. *)
end

module Options : sig
  type t = {
    pool : Consensus_engine.Pool.t option;
        (** Engine pool carrying the parallel stages (default: the
            process-global pool). *)
    rng : Consensus_util.Prng.t option;
        (** Randomness for the pivot/sampling algorithms (default seed
            42, fresh per call — so equal requests get equal answers). *)
    cache : bool;
        (** [false] bypasses the shared probability cache for this request
            only (see {!Cache.with_bypass}); the process-global switch is
            untouched.  Default [true]: whatever the switch says. *)
    deadline : float option;
        (** Wall-clock budget in seconds for this request.  [None]
            (default) inherits the ambient
            {!Consensus_util.Deadline} token — under the serve daemon the
            scheduler has already installed one. *)
    label : string option;
        (** Trace label attached to the request's root [api.run] span
            (shows up in explain plans and [/trace]). *)
  }

  val default : t
  (** No pool/rng/deadline/label overrides, cache on. *)

  val make :
    ?pool:Consensus_engine.Pool.t ->
    ?rng:Consensus_util.Prng.t ->
    ?cache:bool ->
    ?deadline:float ->
    ?label:string ->
    unit ->
    t
end

(** {1 Queries} *)

type flavor = Mean | Median

type set_metric = Set_sym_diff | Set_jaccard

type topk_metric = Topk_consensus.metric =
  | Sym_diff
  | Intersection
  | Footrule
  | Kendall  (** re-export of {!Topk_consensus.metric} *)

type rank_metric = Rank_footrule | Rank_kendall

type query =
  | World of set_metric * flavor
      (** Consensus possible-world answer (§4).  Jaccard requires a
          tuple-independent (mean, median) or BID (median) database. *)
  | Topk of int * topk_metric * flavor
      (** Consensus top-k answer for the given [k] (§5).  Median is
          available for [Sym_diff] only (Theorem 4); other metrics raise
          {!Unsupported}. *)
  | Rank of rank_metric
      (** Consensus complete ranking (mean only; §7 extension).  Kendall
          uses the exact Kemeny DP up to 16 keys, pivot + local search
          beyond. *)
  | Aggregate of float array array * flavor
      (** Consensus group-by count vector (§6.1) of a row-stochastic
          tuple × group matrix.  The matrix is carried by the query; the
          [Db.t] argument of {!run} is not consulted. *)
  | Cluster of { trials : int; samples : int option }
      (** Consensus clustering (§6.2): best of [trials] CC-Pivot runs —
          and, when [samples] is given, of that many sampled worlds —
          improved by local search. *)

(** {1 Answers} *)

type answer =
  | World_answer of { leaves : int list; expected : (string * float) list }
      (** Leaf indices of the consensus world, plus its expected distance
          under each applicable set metric. *)
  | Topk_answer of { keys : int array; expected : (string * float) list }
      (** Ordered consensus top-k keys, with the expected distance under
          all four top-k metrics. *)
  | Rank_answer of { keys : int array; expected : (string * float) list }
      (** Consensus permutation of all keys and its expected distance
          under the requested metric. *)
  | Aggregate_answer of { counts : float array; expected : (string * float) list }
      (** Consensus count vector (integral for medians) and its expected
          squared L2 distance. *)
  | Cluster_answer of { labels : int array; expected : (string * float) list }
      (** Normalized cluster labels by key position and the expected
          number of pairwise disagreements. *)

val run :
  ?pool:Consensus_engine.Pool.t ->
  ?rng:Consensus_util.Prng.t ->
  ?label:string ->
  Db.t ->
  query ->
  answer
(** Evaluate a query.  [pool] (default: the global engine pool) carries
    every parallel stage; answers are identical whatever its [jobs]
    setting.  [rng] (default seed 42) drives the randomized algorithms
    (Kendall pivot, clustering).  [label] tags the root span (see
    {!Options.t.label}).  Raises {!Unsupported} for combinations without
    an algorithm, [Invalid_argument] for ill-formed inputs (e.g.
    non-distinct scores for ranking queries), and
    [Consensus_util.Deadline.Expired] if the ambient deadline passes
    mid-evaluation. *)

val run_result : ?options:Options.t -> Db.t -> query -> (answer, Error.t) result
(** Total variant of {!run}: evaluates under {!Options.t} and turns the
    expected failure modes into [Error _] instead of raising.  Exceptions
    that are neither {!Unsupported}, [Invalid_argument] nor
    [Deadline.Expired] (i.e. genuine bugs) still propagate. *)

(** {1 Oracle hooks}

    Helpers for the differential-testing subsystem ([lib/oracle]), which
    cross-checks {!run} against exhaustive possible-world enumeration. *)

val answer_expected : answer -> (string * float) list
(** The [expected] list of any answer, uniformly. *)

val target_metric : query -> string
(** The name (as used in [expected] lists) of the one metric the query
    optimizes — e.g. [Topk (_, Footrule, _)] reports four metrics but
    minimizes ["footrule"]. *)

val exact : Db.t -> query -> bool
(** True iff {!run} uses an exact algorithm for this query on this
    database, so its answer must attain the brute-force optimum; false for
    the approximation/heuristic paths (top-k Kendall mean via randomized
    KwikSort, clustering via CC-Pivot, full-ranking Kendall beyond the
    16-key exact-DP cutoff, the Jaccard median on a database that is not
    tuple-independent, whose BID prefix scan has no optimality proof),
    whose answers are only bounded. *)

val flavor_name : flavor -> string

val query_name : query -> string
(** Short label of the query family and metric, e.g. ["topk-kendall-mean"]
    (for logs and stats output). *)
