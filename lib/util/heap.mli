(** Bounded selection of the largest scores. *)

val top_indices : float array -> int -> int array
(** [top_indices score m]: the indices of the [min m n] largest entries of
    [score], best first, in [Float.compare]'s order (NaN lowest).  Ties go
    to the lower index, so the result is a stable descending sort's prefix.
    O(n log m). *)
