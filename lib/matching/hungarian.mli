(** The rectangular assignment problem, by shortest augmenting paths
    (Jonker–Volgenant augmentation, in Crouse's 2016 formulation).

    The intersection-metric (§5.3) and footrule (§5.4) mean top-k answers
    are assignment problems, with positions 1..k as agents and tuples as
    tasks; so is the footrule mean of complete rankings (§7), with keys as
    agents and positions as tasks.

    Each row first takes its cheapest reduced column if that column is
    free; every row left over is matched along one shortest augmenting
    path.  A Dijkstra step makes one pass over the unscanned columns, and
    the duals of the scanned rows and columns are updated once per
    augmentation.  A solve is O(rows² · cols) at worst, and each step
    costs one row fetch and O(cols).  Initial column prices close to the
    optimal duals let the greedy start match most rows, so few rows are
    augmented. *)

type solution = {
  assignment : int array;  (** [assignment.(row) = col]. *)
  total : float;
      (** Σ over rows of the cost at the assigned column, summed in row
          order. *)
  steps : int;  (** Dijkstra steps, one row scan each. *)
  augmentations : int;  (** Rows matched by an augmenting path. *)
}

val solve :
  ?prices:float array -> rows:int -> cols:int -> (int -> float array) -> solution
(** [solve ~rows ~cols row] assigns each of the [rows] rows a distinct
    column minimizing the total cost.  [row i] returns row [i]'s [cols]
    costs; the array need stay valid only until the next call, so a caller
    can fill one buffer on each call.  Requires [rows <= cols] and finite
    costs; a wrong-length or non-finite row raises [Invalid_argument].

    [prices] (default all 0) are initial column prices.  Any finite prices
    give the optimum; they need a square problem, since a rectangular solve
    relies on the free columns keeping the common price 0.

    Polls the ambient {!Consensus_util.Deadline} token on entry and once per
    augmentation. *)

val minimize : float array array -> int array * float
(** [minimize cost] is {!solve} on [Array.get cost]: each row gets a
    distinct column minimizing the total cost.  Requires [rows <= cols],
    equal row lengths and finite entries.  Returns [(assignment, total)]
    with [assignment.(row) = col]. *)

val maximize : float array array -> int array * float
(** Same with profits: maximizes the total. *)
