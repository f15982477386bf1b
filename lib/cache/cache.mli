(** Shared probability cache for the consensus pipeline.

    One process-global, thread-safe, size-bounded LRU memoizing the
    expensive probability intermediates that repeated queries over the same
    database re-derive: per-key rank tables, pairwise rank/top-k joint
    matrices (Kendall, clustering) and exact lineage-inference
    probabilities.

    Entries are keyed by a {e content hash} of the inputs — the and/xor
    tree digest (see [Db.digest]) or the lineage-formula digest, combined
    with the computation family and its parameters via {!key} — so two
    structurally identical databases share entries and any structural
    change misses.  Values are immutable snapshots; a hit returns exactly
    the floats a fresh computation would produce, so answers with the
    cache enabled are bit-identical to answers with it disabled.

    The cache is {e disabled} by default: call sites pay one atomic load
    when it is off, and never build their key.  Turn it on per process
    ({!set_enabled}) when a workload issues many queries against few
    databases — the CLI batch mode and the {!Consensus.Api} facade expose
    this switch.

    Metrics: hits, misses and evictions are counted internally (always,
    for {!stats}) and mirrored to [Obs] counters [cache_hits_total],
    [cache_misses_total], [cache_evictions_total] plus the
    [cache_bytes_resident] gauge whenever the observability subsystem is
    enabled. *)

(** {1 Switch and sizing} *)

val set_enabled : bool -> unit
(** Enabling is cheap; disabling does not drop resident entries (use
    {!clear}). *)

val with_bypass : bool -> (unit -> 'a) -> 'a
(** [with_bypass true f] runs [f] with the cache bypassed {e on the calling
    domain} — {!find} returns [None] and {!store} is a no-op without
    touching the hit/miss counters — restoring the previous bypass state
    afterwards.  Used by [Api.run_result] to honour a per-request
    [cache = false] option while the process-global switch stays on for
    other requests.  [with_bypass false f] re-enables the cache for [f]
    inside an outer bypass. *)

val default_capacity_bytes : int
(** 64 MiB. *)

val capacity_bytes : unit -> int

val set_capacity_bytes : int -> unit
(** Change the resident-cost bound, evicting down to it immediately.
    Raises [Invalid_argument] on negative capacities. *)

val clear : unit -> unit
(** Drop every entry (statistics are kept). *)

(** {1 Payloads} *)

(** The memoized payload kinds, each a witness of its payload type.
    Payloads are immutable snapshots owned by the cache: call sites must not
    mutate arrays obtained from a hit (wiring copies where the consumer
    mutates). *)
type _ kind =
  | Rank_table : (int * float array) list kind
      (** per-key positional probabilities, [Marginals.rank_table]. *)
  | Matrix : float array array kind
      (** pairwise probability matrices: rank disagreements, clustering
          co-occurrence, Kendall tournament preferences. *)
  | Pairs : (int array * float array) kind
      (** sparse ordered-pair joints [Pr(r(i) < r(j) <= k)]: pair codes
          [i·n + j] over the indices of the [n] keys of [Db.keys], and the
          joint of each code at the same position. *)
  | Prob : float kind  (** one lineage-inference probability. *)

val key : family:string -> digest:string -> params:string list -> string
(** Build a cache key.  [family] names the computation (e.g.
    ["rank_table"]), [digest] fingerprints the database or formula,
    [params] the remaining inputs (e.g. [k]).  Distinct families never
    collide. *)

(** {1 Operations} *)

val active : unit -> bool
(** The switch {!find}, {!store} and {!memo} obey: the cache is enabled and
    not bypassed on the calling domain. *)

val find : 'a kind -> string -> 'a option
(** Lookup; counts a hit or a miss (an entry of another kind is a miss).
    Always [None] when not {!active} (without touching the counters). *)

val store : 'a kind -> string -> 'a -> unit
(** Insert at most-recently-used position; the entry cost is an estimate
    of the payload bytes.  No-op when not {!active}. *)

val memo :
  'a kind ->
  family:string ->
  digest:(unit -> string) ->
  params:string list ->
  (unit -> 'a) ->
  'a
(** [memo kind ~family ~digest ~params compute]: {!find} under the {!key},
    or [compute ()] then {!store}.  When the cache is not {!active} this is
    just [compute ()], and [digest] is never called. *)

(** {1 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** resident entries *)
  bytes : int;  (** resident payload-cost estimate *)
}

val stats : unit -> stats
(** Counters since process start (surviving {!clear}). *)

val reset_stats : unit -> unit
(** Zero hit/miss/eviction counters (entries stay resident). *)
