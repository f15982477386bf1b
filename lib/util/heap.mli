(** Mutable binary max-heap keyed by float priorities.

    Used by best-first searches (e.g. the exact U-Top-k algorithm of
    Soliman et al., which expands partial top-k vectors in decreasing
    probability order). *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** Insert with a priority. *)

val pop_max : 'a t -> (float * 'a) option
(** Remove and return the highest-priority element. *)

val peek_max : 'a t -> (float * 'a) option

val top_indices : float array -> int -> int array
(** [top_indices score m]: the indices of the [min m n] largest entries of
    [score], best first, in [Float.compare]'s order (NaN lowest).  Ties go
    to the lower index, so the result is a stable descending sort's prefix.
    O(n log m). *)
