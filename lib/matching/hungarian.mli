(** Hungarian algorithm (Kuhn–Munkres with potentials) for the rectangular
    assignment problem in O(rows² · cols).

    The intersection-metric (§5.3) and footrule (§5.4) mean top-k answers are
    assignment problems: positions 1..k are agents and tuples are tasks. *)

val minimize : float array array -> int array * float
(** [minimize cost] assigns each row a distinct column minimizing total cost.
    Requires [rows <= cols] and finite entries.  Returns [(assignment,
    total)] with [assignment.(row) = col]. *)

val maximize : float array array -> int array * float
(** Same with profits: maximizes the total. *)
