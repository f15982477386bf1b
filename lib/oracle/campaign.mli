(** Differential-fuzz campaigns, shared by every case family.

    A family ({!Fuzz} over {!Corpus} cases, {!Lineage_fuzz} over lineage
    formulas) supplies only its own work: a case codec, a checker and the
    one-step shrink reductions.  This module owns everything around them —
    the generate → check → shrink → promote loop ({!run}), corpus replay
    ({!replay}), the greedy shrink loop ({!shrink}) and the corpus file IO.

    Every family's cases share one corpus directory, told apart by their
    file-name prefix ([case-] for the consensus families, [lcase-] for
    lineage), and every family counts into the same Obs counters:
    [fuzz_cases_total], [fuzz_checks_total], [fuzz_discrepancies_total] and
    [fuzz_shrink_steps_total] (recorded when tracing is enabled). *)

(** {1 Verdicts} *)

type verdict = {
  checks : int;  (** individual invariant checks performed *)
  failure : (string * string) option;  (** (check name, detail) *)
}

val checking : ((string -> (unit -> string) -> bool -> unit) -> unit) -> verdict
(** [checking body] runs [body ensure], where [ensure name detail cond]
    counts one check and fails it (with [detail ()]) when [cond] is false.
    The first failed check ends the body; any other exception escaping it
    is reported as a failing check named [exception]. *)

(** {1 Families} *)

type 'case codec = {
  prefix : string;  (** corpus file-name prefix, e.g. ["case-"] *)
  to_string : 'case -> string;
  of_string : string -> ('case, string) result;
}

val float_repr : float -> string
(** Shortest spelling of a float that reads back exactly, for codecs. *)

type 'case family = {
  codec : 'case codec;
  check : 'case -> verdict;
      (** Deterministic in the case content; used for shrinking and
          replay. *)
  candidates : 'case -> 'case list;
      (** One-step reductions, preferred first. *)
}

(** {1 Corpus files} *)

val file_name : 'case codec -> 'case -> string
(** [<prefix><hex>.txt], from the digest of the serialized case:
    re-promoting the same case is idempotent and corpus files carry no
    timestamps. *)

val save : 'case codec -> dir:string -> 'case -> string
(** Serialize into [dir] (created if missing) under {!file_name}; returns
    the path written. *)

val load_dir : 'case codec -> string -> (string * 'case) list
(** The codec's files ([<prefix>*.txt]) of a directory in name order,
    parsed; other files are ignored.  Raises [Failure] on the first
    malformed file (a corrupted corpus should fail loudly, not shrink
    silently).  An absent directory is an empty corpus. *)

(** {1 Campaigns} *)

val shrink : ('case -> 'case list) -> ('case -> bool) -> 'case -> 'case * int
(** [shrink candidates still_fails case]: greedy descent that moves to the
    first candidate still failing, until none does or 200 steps are taken;
    returns the reduced case and the number of accepted steps ([case]
    itself and 0 when no reduction reproduces the failure).  [still_fails]
    must be exception-safe. *)

type 'case discrepancy = {
  case : 'case;
  check : string;
  detail : string;
  shrunk : 'case;
  shrink_steps : int;
  path : string option;  (** corpus file if promoted *)
}

type 'case report = {
  cases : int;
  total_checks : int;  (** checks of the fresh cases (not of shrinking) *)
  discrepancies : 'case discrepancy list;
}

val run :
  ?corpus_dir:string ->
  'case family ->
  iters:int ->
  (unit -> 'case * verdict) list ->
  'case report
(** Draw [iters] fresh cases from each generator in turn.  A generator
    returns a case with its first verdict, so it may check with knowledge
    only it has (the lineage generator's expected read-once verdict);
    shrinking re-checks with [family.check].  A failing case is shrunk and,
    when [corpus_dir] is given, promoted there under {!file_name}.  Raises
    [Invalid_argument] on negative [iters]. *)

val replay : 'case family -> dir:string -> (string * verdict) list
(** Re-check every case file of the family in [dir]: each file name with
    its verdict, in name order.  Raises [Failure] on a malformed file (see
    {!load_dir}). *)
