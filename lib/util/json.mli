(** A minimal JSON tree with an emitter and a parser — the one JSON codec
    of the code base (trace export, metrics dumps, engine per-stage
    metrics, the bench trajectory check and the test validators).
    Hand-rolled on purpose: the project takes no external JSON dependency.

    Strings are escaped per RFC 8259 (quotes, backslashes, control
    characters); floats are emitted in a JSON-compatible spelling (no [nan],
    [inf] or trailing-dot literals — non-finite values degrade to [null]). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape_string : string -> string
(** [escape_string s] is [s] with JSON string escapes applied, without the
    surrounding quotes. *)

val number_of_float : float -> string
(** JSON-safe spelling of a float: finite values round-trip through
    [float_of_string]; [nan]/[infinity] become ["null"]. *)

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val of_string : string -> (t, string) result
(** Parse one RFC 8259 document, surrounded by optional whitespace.
    Integer literals that fit an [int] read as [Int], every other number as
    [Float]; [\uXXXX] escapes (surrogate pairs included) decode to UTF-8.
    [Error msg] names the first problem and its byte offset. *)

val member : string -> t -> t option
(** [member key v] is the first field [key] of object [v]; [None] when [v]
    is not an object or has no such field. *)

val to_float : t -> float option
(** The value of an [Int] or [Float]; [None] for anything else. *)
