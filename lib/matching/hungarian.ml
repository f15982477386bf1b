module Obs = Consensus_obs.Obs
module Deadline = Consensus_util.Deadline

let solve_seconds =
  Obs.Histogram.make ~help:"Wall time of one Hungarian assignment solve"
    "matching_hungarian_seconds"

let solves =
  Obs.Counter.make ~help:"Hungarian assignment solves" "matching_hungarian_solves_total"

type solution = {
  assignment : int array;
  total : float;
  steps : int;
  augmentations : int;
}

let solve ?prices ~rows:n ~cols:m row =
  if n > m then invalid_arg "Hungarian.solve: more rows than columns";
  (match prices with
  | None -> ()
  | Some p ->
      if n <> m || Array.length p <> m then
        invalid_arg "Hungarian.solve: prices need a square problem, one per column";
      if not (Array.for_all Float.is_finite p) then
        invalid_arg "Hungarian.solve: non-finite price");
  Obs.Counter.incr solves;
  Obs.Histogram.time solve_seconds @@ fun () ->
  Obs.with_span
    ~attrs:(fun () ->
      [ ("rows", Obs.Int n); ("cols", Obs.Int m); ("cells", Obs.Int (n * m)) ])
    "matching.hungarian"
  @@ fun () ->
  Deadline.check_current ();
  (* Every row is fetched in the greedy pass below before any search, so
     checking each row index once validates the whole input up front. *)
  let checked = Array.make n false in
  let fetch i =
    let r = row i in
    if Array.length r <> m then invalid_arg "Hungarian.solve: ragged cost matrix";
    if not checked.(i) then begin
      for j = 0 to m - 1 do
        if not (Float.is_finite r.(j)) then
          invalid_arg "Hungarian.solve: non-finite cost"
      done;
      checked.(i) <- true
    end;
    r
  in
  (* Duals: reduced costs c(i, j) − u.(i) − v.(j) stay ≥ 0 on every
     matched row and are 0 on its matched edge.  Free columns keep the
     price they started with, so a rectangular solve (zero prices) ends
     with every free column at the common maximum price 0. *)
  let v = match prices with Some p -> Array.copy p | None -> Array.make m 0. in
  let u = Array.make n 0. in
  let col4row = Array.make n (-1) and row4col = Array.make m (-1) in
  (* Greedy start: u.(i) is row i's least reduced cost, and the row takes
     its argmin column when that column is still free. *)
  for i = 0 to n - 1 do
    let r = fetch i in
    let best = ref infinity and arg = ref 0 in
    for j = 0 to m - 1 do
      let c = Array.unsafe_get r j -. Array.unsafe_get v j in
      if c < !best then begin
        best := c;
        arg := j
      end
    done;
    u.(i) <- !best;
    if row4col.(!arg) < 0 then begin
      row4col.(!arg) <- i;
      col4row.(i) <- !arg
    end
  done;
  (* Each free row is matched along a shortest augmenting path (Jonker and
     Volgenant's augmentation, in Crouse's formulation): a Dijkstra over
     the unscanned columns, one pass per step, with the duals of the
     scanned rows and columns updated once, after the path is found. *)
  let dist = Array.make m infinity in
  let path = Array.make m 0 in
  let remaining = Array.make m 0 in
  let scanned_rows = Array.make n 0 and scanned_cols = Array.make m 0 in
  let steps = ref 0 and augmentations = ref 0 in
  for cur = 0 to n - 1 do
    if col4row.(cur) < 0 then begin
      Deadline.check_current ();
      incr augmentations;
      Array.fill dist 0 m infinity;
      for j = 0 to m - 1 do
        remaining.(j) <- m - 1 - j
      done;
      let n_rem = ref m and n_rows = ref 0 and n_cols = ref 0 in
      let min_val = ref 0. and i = ref cur and sink = ref (-1) in
      while !sink < 0 do
        incr steps;
        scanned_rows.(!n_rows) <- !i;
        incr n_rows;
        let r = fetch !i and base = !min_val -. u.(!i) in
        let lowest = ref infinity and index = ref 0 in
        (* [remaining] holds the n_rem unscanned columns, all below m, and
           every array read here has m cells, so the scan reads
           unchecked.  On a tie a free column wins: it ends the search. *)
        for it = 0 to !n_rem - 1 do
          let j = Array.unsafe_get remaining it in
          let reduced = base +. Array.unsafe_get r j -. Array.unsafe_get v j in
          if reduced < Array.unsafe_get dist j then begin
            Array.unsafe_set path j !i;
            Array.unsafe_set dist j reduced
          end;
          let d = Array.unsafe_get dist j in
          if d < !lowest || (d = !lowest && Array.unsafe_get row4col j < 0) then begin
            lowest := d;
            index := it
          end
        done;
        min_val := !lowest;
        let j = remaining.(!index) in
        if row4col.(j) < 0 then sink := j else i := row4col.(j);
        scanned_cols.(!n_cols) <- j;
        incr n_cols;
        decr n_rem;
        remaining.(!index) <- remaining.(!n_rem)
      done;
      let min_val = !min_val in
      u.(cur) <- u.(cur) +. min_val;
      for s = 1 to !n_rows - 1 do
        let i = scanned_rows.(s) in
        u.(i) <- u.(i) +. (min_val -. dist.(col4row.(i)))
      done;
      for s = 0 to !n_cols - 1 do
        let j = scanned_cols.(s) in
        v.(j) <- v.(j) -. (min_val -. dist.(j))
      done;
      (* Flip the path back from the sink to [cur]. *)
      let j = ref !sink and fin = ref false in
      while not !fin do
        let i = path.(!j) in
        row4col.(!j) <- i;
        let prev = col4row.(i) in
        col4row.(i) <- !j;
        if i = cur then fin := true else j := prev
      done
    end
  done;
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. (fetch i).(col4row.(i))
  done;
  { assignment = col4row; total = !total; steps = !steps; augmentations = !augmentations }

let minimize cost =
  let n = Array.length cost in
  let m = if n = 0 then 0 else Array.length cost.(0) in
  let s = solve ~rows:n ~cols:m (Array.get cost) in
  (s.assignment, s.total)

let maximize profit =
  let cost = Array.map (Array.map (fun c -> -.c)) profit in
  let assignment, total = minimize cost in
  (assignment, -.total)
