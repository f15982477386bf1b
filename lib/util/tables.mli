(** Minimal aligned ASCII table rendering for the experiment harness. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?title:string -> (string * align) list -> t
(** [create cols] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; must have exactly as many cells as columns. *)

val add_rowf : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Append a one-cell-per-'|' row written with a format string; cells are
    split on ['|']. *)

val render : t -> string
(** Render with padded columns, a header rule, and the optional title.
    Widths count UTF-8 code points, so cells holding non-ASCII symbols
    such as "Δ" stay aligned. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)
