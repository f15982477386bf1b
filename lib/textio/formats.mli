(** Line-oriented input formats used by the CLI.

    - {e database}: one line per key, [<key> <prob>:<value> ...]; a file
      whose first significant character is ['('] is instead parsed as an
      and/xor tree in the {!Consensus_anxor.Sexp_io} syntax.  A value
      (score) must not be NaN.
    - {e matrix}: whitespace-separated rows of probabilities.
    - {e cnf}: DIMACS-lite MAX-2-SAT clauses (signed 1-based literals,
      optional trailing 0, ["c"]/["p"] lines ignored).

    ['#'] and [';'] start comments; blank lines are skipped.  Parsers fail
    with [Failure "<file>:<line>: <message>"]. *)

val load_db : string -> Consensus_anxor.Db.t
(** Load a database from a file path ('-' = stdin), auto-detecting the
    tree syntax. *)

val db_of_lines : ?path:string -> string list -> Consensus_anxor.Db.t
(** Same on in-memory lines (for tests). *)

val load_matrix : string -> float array array
val matrix_of_lines : ?path:string -> string list -> float array array

val load_cnf : string -> int * (int * bool) list array
(** (number of variables, clauses as (0-based variable, polarity) lists). *)

val cnf_of_lines : ?path:string -> string list -> int * (int * bool) list array
