(** Textual format for and/xor trees.

    An s-expression syntax mirroring Definition 1:

    {v
    tree ::= (leaf <key> <value>)
           | (and tree ...)
           | (xor (<prob> tree) ...)
    v}

    Example (Figure 1(iii)'s first branch):
    [(xor (0.3 (and (leaf 3 6) (leaf 2 5) (leaf 1 1))) ...)].

    Whitespace separates tokens; [;] starts a line comment.  {!parse}
    applies the usual validation ([Tree.xor] probability constraints, and
    a leaf value must not be NaN; [Db.of_string] additionally checks the
    key constraint).

    Parsing and printing are single-pass and stack-safe: no token list is
    ever materialized, and arbitrarily wide or deep trees round-trip without
    [Stack_overflow].  {!parse_stream} additionally loads straight into a
    flat {!Arena.t} from a channel in bounded memory (a 64 KiB read chunk
    plus the arena itself) — the path for million-tuple databases. *)

val parse : string -> (Db.alt Tree.t, string) result
(** Parse a tree; errors carry a character offset and message. *)

val parse_exn : string -> Db.alt Tree.t

val parse_stream : ?initial_capacity:int -> in_channel -> (Arena.t, string) result
(** Stream the same syntax from a channel directly into an arena via
    [Arena.Builder] — no token list, no intermediate tree.
    [initial_capacity] presizes the builder (node count estimate). *)

val db_of_channel :
  ?check:bool -> ?initial_capacity:int -> in_channel -> (Db.t, string) result
(** [parse_stream] followed by [Db.of_arena]: validate and wrap without ever
    materializing a pointer tree. *)

val to_string : Db.alt Tree.t -> string
(** Render in the same syntax; [parse (to_string t)] re-reads [t]
    exactly: floats are printed as [%.17g], which round-trips every finite
    double to the same bits. *)

val db_of_string : string -> (Db.t, string) result
(** Parse and validate into a {!Db.t}. *)

val db_to_string : Db.t -> string
