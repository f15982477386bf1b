(** Lightweight per-stage instrumentation of the parallel engine.

    Every parallel combinator records one event per call under a {e stage}
    label (e.g. ["rank_table"], ["kendall_joints"]).  A stage accumulates the
    number of calls, elementary tasks, chunks, the wall-clock time spent, and
    where the chunks ran (on the submitting domain or on a pool worker) — a
    cheap proxy for queue pressure.

    A registry is thread-safe: worker domains and the submitting domain may
    record concurrently. *)

type stage = {
  name : string;
  mutable calls : int;  (** parallel-combinator invocations *)
  mutable tasks : int;  (** elementary work items (array cells, keys, …) *)
  mutable chunks : int;  (** scheduled chunk tasks *)
  mutable seq_calls : int;
      (** calls served by the sequential fallback (jobs = 1 or small input) *)
  mutable by_caller : int;  (** chunks executed inline by the submitting domain *)
  mutable by_worker : int;  (** chunks executed by pool worker domains *)
  mutable wall : float;  (** total wall-clock seconds across calls *)
}

type t
(** A mutable metrics registry. *)

val create : unit -> t

val record :
  t ->
  stage:string ->
  tasks:int ->
  chunks:int ->
  seq:bool ->
  by_caller:int ->
  by_worker:int ->
  wall:float ->
  unit
(** Accumulate one combinator call into the stage's counters. *)

val snapshot : t -> stage list
(** Copies of all stages, sorted by name. *)

val reset : t -> unit

val total_wall : t -> float
(** Sum of [wall] over all stages. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table of the registry. *)
