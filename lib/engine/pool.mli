(** A reusable OCaml 5 domain pool with deterministic parallel combinators.

    {2 Determinism guarantees}

    {!parallel_init} and {!parallel_map} write every result into its own
    index of the output array, so the output is independent of scheduling
    and of the [jobs] setting: for a pure [f] the result is bit-identical to
    the sequential computation.

    {2 Scheduling}

    A pool with [jobs = j] owns [j - 1] worker domains plus the submitting
    domain, which participates in executing chunk tasks while a combinator
    is in flight.  A pool with [jobs = 1] never spawns a domain and runs
    everything inline.  Combinators also take the sequential path for two
    items or fewer.  Nested combinator calls are
    allowed (inner calls help drain the shared queue; no deadlock).

    A pool is for a caller that owns the machine: a CLI query, [batch],
    the fuzzers, a benchmark.  The serve daemon parallelises across
    requests instead, and hands every request a [jobs = 1] pool, so its
    kernels run inline on the scheduler worker that evaluates it.

    Worker exceptions propagate: the first exception raised by a chunk is
    re-raised in the submitting domain (with its backtrace) after the
    remaining chunks are cancelled.

    {2 Cooperative cancellation}

    Combinators capture the submitting domain's ambient
    {!Consensus_util.Deadline} token and re-install it around every chunk
    they execute — on worker domains, on the submitter, and on concurrent
    submitters helping drain the shared queue.  Each chunk checks the token
    before running, so a request whose deadline has passed (or that was
    cancelled) raises {!Consensus_util.Deadline.Expired} at the submission
    site instead of finishing its remaining chunks.  Without an ambient
    token ({!Consensus_util.Deadline.none}) the check is one atomic load. *)

type t

val create : ?metrics:Metrics.t -> ?jobs:int -> unit -> t
(** [create ~jobs ()] builds a pool with [jobs] execution slots.
    [jobs = 0] (the default) sizes the pool automatically from
    [Domain.recommended_domain_count ()].  Raises [Invalid_argument] on
    negative [jobs].  A fresh {!Metrics.t} registry is created unless one is
    supplied. *)

val jobs : t -> int
(** The resolved number of execution slots (>= 1). *)

val metrics : t -> Metrics.t
(** The pool's instrumentation registry. *)

val shutdown : t -> unit
(** Drain the queue, stop and join the worker domains.  Idempotent.
    Subsequent submissions still complete — they run inline in the calling
    domain (no workers are left to run them). *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down
    afterwards (also on exceptions). *)

(** {1 Global pool}

    Hot paths take [?pool] arguments defaulting to a process-global pool,
    created lazily at first use and sized from
    [Domain.recommended_domain_count ()] (or {!set_global_jobs}). *)

val get_global : unit -> t
(** The global pool, created on first call. *)

val set_global_jobs : int -> unit
(** Set the size of the global pool ([0] = auto) and shut down any existing
    global pool; the next {!get_global} creates a fresh one.  Safe to call
    while other domains run combinators: a caller still holding the retired
    pool falls back to inline execution (see {!shutdown}) instead of
    raising, so results are unaffected — only the parallelism of in-flight
    work. *)

val resolve : t option -> t
(** [resolve (Some p) = p]; [resolve None = get_global ()].  The standard
    entry for [?pool] arguments. *)

(** {1 Task submission} *)

val submit : t -> (unit -> 'a) -> 'a Task.t
(** Schedule one closure on the pool ([jobs = 1] or shut-down pool:
    executed inline before returning). *)

(** {1 Parallel combinators}

    Both combinators take the work from index [0] to [n - 1]: index [0] on
    the calling domain, then one scheduled chunk per further index.
    [stage] labels the call in the pool's {!Metrics}. *)

val parallel_init : ?pool:t -> ?stage:string -> int -> (int -> 'a) -> 'a array
(** Parallel [Array.init].  [f] must be pure (or at least data-race free);
    it may itself call combinators on the same pool. *)

val parallel_map : ?pool:t -> ?stage:string -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], output index [i] holding [f a.(i)]. *)
