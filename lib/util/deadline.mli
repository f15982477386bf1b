(** Cooperative cancellation tokens with absolute deadlines.

    A token is a wall-clock deadline plus a manual cancel flag.  Long-running
    computations poll it — {!check} raises {!Expired} once the deadline has
    passed or {!cancel} was called — so a query-serving frontend can bound
    request latency without killing domains.

    {2 Ambient token}

    The serving stack installs the current request's token as the {e ambient}
    token of the evaluating domain ({!with_current}); the engine pool
    captures the ambient token at combinator submission and re-installs it
    around every chunk it executes, including chunks that migrate to worker
    domains.  Hot kernels therefore only need {!check_current} (or go through
    the pool combinators, which check once per chunk) to become cancellable.

    The ambient slot is {e per-domain} ([Domain.DLS]): a domain must evaluate
    one request at a time for the ambient token to be meaningful.  The
    scheduler in [lib/serve] runs each request on a dedicated worker domain
    for exactly this reason.

    {2 Cost}

    {!check} on {!none} (the default ambient token) is one atomic load and a
    float compare — no clock read.  Tokens with a finite deadline read the
    clock on every check; poll at chunk/iteration granularity, not per
    floating-point operation. *)

type t

exception Expired
(** Raised by {!check}/{!check_current} once the token is {!expired}.
    [Engine_api.run_result] maps it to [Error Deadline_exceeded]. *)

val none : t
(** The never-expiring token ({!cancel} on it is ignored).  This is the
    initial ambient token of every domain. *)

val make : ?deadline:float -> unit -> t
(** A fresh token expiring at absolute Unix time [deadline] (seconds, as
    [Unix.gettimeofday]; default: never). *)

val after : float -> t
(** [after s] is [make ~deadline:(now +. s) ()]. *)

val cancel : t -> unit
(** Expire the token immediately (idempotent; no-op on {!none}). *)

val deadline : t -> float
(** The absolute deadline ([infinity] when none). *)

val expired : t -> bool
(** True once cancelled or once the clock reaches the deadline, so
    [after 0.] is expired at once. *)

val check : t -> unit
(** Raise {!Expired} iff {!expired}. *)

(** {1 Ambient token} *)

val current : unit -> t
(** This domain's ambient token ({!none} unless {!with_current} is active). *)

val with_current : t -> (unit -> 'a) -> 'a
(** [with_current t f] runs [f] with [t] as the ambient token, restoring the
    previous ambient token afterwards (also on exceptions). *)

val check_current : unit -> unit
(** [check (current ())] — the one-liner for hot kernel loops. *)
