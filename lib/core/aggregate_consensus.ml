module Mcf = Consensus_matching.Min_cost_flow
module Hk = Consensus_matching.Hopcroft_karp
module Obs = Consensus_obs.Obs

type t = { probs : float array array; n : int; m : int }

let create probs =
  let n = Array.length probs in
  if n = 0 then invalid_arg "Aggregate_consensus.create: empty matrix";
  let m = Array.length probs.(0) in
  if m = 0 then invalid_arg "Aggregate_consensus.create: no groups";
  Array.iteri
    (fun i row ->
      if Array.length row <> m then
        invalid_arg "Aggregate_consensus.create: ragged matrix";
      let total = Array.fold_left ( +. ) 0. row in
      Array.iter
        (fun p ->
          if not (Consensus_util.Fcmp.is_probability ~eps:1e-6 p) then
            invalid_arg "Aggregate_consensus.create: entry not a probability")
        row;
      if not (Consensus_util.Fcmp.approx ~eps:1e-6 total 1.) then
        invalid_arg
          (Printf.sprintf "Aggregate_consensus.create: row %d sums to %g" i total))
    probs;
  { probs = Array.map Array.copy probs; n; m }

let num_tuples t = t.n
let num_groups t = t.m
let probs t = Array.map Array.copy t.probs

let mean t =
  let r = Array.make t.m 0. in
  Array.iter
    (fun row ->
      for v = 0 to t.m - 1 do
        r.(v) <- r.(v) +. row.(v)
      done)
    t.probs;
  r

let variance t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc p -> acc +. (p *. (1. -. p))) acc row)
    0. t.probs

let expected_sq_dist t c =
  if Array.length c <> t.m then
    invalid_arg "Aggregate_consensus.expected_sq_dist: dimension mismatch";
  let r_bar = mean t in
  let bias = ref 0. in
  Array.iteri (fun v cv -> bias := !bias +. ((cv -. r_bar.(v)) ** 2.)) c;
  !bias +. variance t

let counts_of_assignment t assignment =
  let r = Array.make t.m 0. in
  Array.iter (fun v -> r.(v) <- r.(v) +. 1.) assignment;
  ignore t;
  r

(* Node layout for the Theorem 5 network: 0 = source, 1..n = tuples,
   n+1..n+m = groups, n+m+1 = sink. *)
let tuple_node i = 1 + i
let group_node t v = 1 + t.n + v

(* Successive shortest paths on the convex-cost network, specialised.  The
   network: tuple i -> group v (capacity 1, cost 0) for every v in i's
   support, and group v -> sink carrying units of which the u-th costs
   2u - 1 - 2·r̄_v, so an assignment with counts c costs ‖c - r̄‖² - ‖r̄‖².
   Each tuple is a unit supply, routed to the sink along a shortest residual
   path one tuple at a time; the residual graph then never holds a negative
   cycle, and the last flow is min-cost.

   Every tuple -> group arc costs 0, so a residual path from the new tuple is
   a zero-cost alternating walk over groups: into a group g of its support,
   back along the reverse arc of some tuple j now assigned to g, forward into
   another group g' of j's support, and so on, until it leaves some group z
   for the sink through z's next unit, at cost 2·c_z + 1 - 2·r̄_z (convexity
   keeps z's c_z cheaper units the used ones).  A path that passes through
   the sink, comes back along a reverse unit arc and reaches it again
   contains a cycle, which the invariant makes non-negative, so such paths
   can be ignored: the shortest path ends at the cheapest group reachable by
   the walk, ties going to the lowest index.  The search is a BFS over the m
   groups, with an arc g -> g' while the number of tuples assigned to g with
   g' in their support is positive.  Only groups that hold tuples have
   out-arcs, so only they get a row of that count matrix: at most min(n, m)
   hold tuples at any time, and the matrix is min(n, m)·m, never larger than
   the input.  A group whose members' supports add up to fewer than m entries
   is expanded by scanning those supports instead of its row, so the search
   is O(min(n·s, min(n, m)·m)) per tuple for supports of size s.  Either scan
   reaches the same groups, and so the same z.  The path is applied by
   moving one witness tuple back along each arc, from z towards the new
   tuple, which then takes the path's first group. *)
let median t =
  let n = t.n and m = t.m in
  let r_bar = mean t in
  let moves = ref 0 in
  Obs.with_span
    ~attrs:(fun () ->
      [
        ("tuples", Obs.Int n);
        ("groups", Obs.Int m);
        ("witness_moves", Obs.Int !moves);
      ])
    "core.aggregate.median"
  @@ fun () ->
  (* supports in CSR form: tuple i's groups are sup.(sup_start.(i) ..
     sup_start.(i+1) - 1), ascending *)
  let sup_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let row = t.probs.(i) and c = ref 0 in
    for v = 0 to m - 1 do
      if row.(v) > 0. then incr c
    done;
    sup_start.(i + 1) <- sup_start.(i) + !c
  done;
  let sup = Array.make sup_start.(n) 0 in
  (* group v's members live in members.(mem_start.(v) .. + count.(v) - 1);
     its capacity is the number of tuples that have v in their support *)
  let mem_start = Array.make (m + 1) 0 in
  for i = 0 to n - 1 do
    let row = t.probs.(i) and s = ref sup_start.(i) in
    for v = 0 to m - 1 do
      if row.(v) > 0. then begin
        sup.(!s) <- v;
        incr s;
        mem_start.(v + 1) <- mem_start.(v + 1) + 1
      end
    done
  done;
  for v = 0 to m - 1 do
    mem_start.(v + 1) <- mem_start.(v + 1) + mem_start.(v)
  done;
  let members = Array.make sup_start.(n) 0 in
  let pos = Array.make n 0 in
  let assignment = Array.make n (-1) in
  let count = Array.make m 0 in
  (* row.(v) is v's row of [arcs] while v holds tuples, else -1; a group
     that empties pushes its row, all zeros again, back on [free] *)
  let rows = min n m in
  let row = Array.make m (-1) in
  let free = Array.init rows Fun.id in
  let nfree = ref rows in
  let arcs = Array.make (rows * m) 0 in
  (* total support size of the tuples assigned to each group *)
  let fan = Array.make m 0 in
  (* BFS state: parent -2 = unreached, -1 = in the new tuple's support *)
  let parent = Array.make m (-2) in
  let queue = Array.make m 0 in
  let update_arcs j v delta =
    let base = row.(v) * m in
    fan.(v) <- fan.(v) + (delta * (sup_start.(j + 1) - sup_start.(j)));
    for s = sup_start.(j) to sup_start.(j + 1) - 1 do
      let h = sup.(s) in
      if h <> v then arcs.(base + h) <- arcs.(base + h) + delta
    done
  in
  let place j v =
    if count.(v) = 0 then begin
      decr nfree;
      row.(v) <- free.(!nfree)
    end;
    let p = mem_start.(v) + count.(v) in
    members.(p) <- j;
    pos.(j) <- p;
    count.(v) <- count.(v) + 1;
    assignment.(j) <- v;
    update_arcs j v 1
  in
  let unplace j =
    let v = assignment.(j) in
    let last = mem_start.(v) + count.(v) - 1 in
    let k = members.(last) in
    members.(pos.(j)) <- k;
    pos.(k) <- pos.(j);
    count.(v) <- count.(v) - 1;
    update_arcs j v (-1);
    if count.(v) = 0 then begin
      free.(!nfree) <- row.(v);
      incr nfree;
      row.(v) <- -1
    end
  in
  (* a tuple assigned to g with h in its support: one exists while g's arc
     count for h is positive *)
  let witness g h =
    let p = ref mem_start.(g) and found = ref (-1) in
    while !found < 0 do
      let j = members.(!p) in
      let s = ref sup_start.(j) in
      while !s < sup_start.(j + 1) && sup.(!s) <> h do
        incr s
      done;
      if !s < sup_start.(j + 1) then found := j else incr p
    done;
    !found
  in
  for i = 0 to n - 1 do
    Array.fill parent 0 m (-2);
    let tail = ref 0 in
    for s = sup_start.(i) to sup_start.(i + 1) - 1 do
      parent.(sup.(s)) <- -1;
      queue.(!tail) <- sup.(s);
      incr tail
    done;
    let head = ref 0 in
    while !head < !tail do
      let g = queue.(!head) in
      incr head;
      if fan.(g) < m then
        for p = mem_start.(g) to mem_start.(g) + count.(g) - 1 do
          let j = members.(p) in
          for s = sup_start.(j) to sup_start.(j + 1) - 1 do
            let h = sup.(s) in
            if parent.(h) = -2 then begin
              parent.(h) <- g;
              queue.(!tail) <- h;
              incr tail
            end
          done
        done
      else begin
        (* fan.(g) >= m > 0: g holds tuples, so it has a row *)
        let base = row.(g) * m in
        for h = 0 to m - 1 do
          if parent.(h) = -2 && arcs.(base + h) > 0 then begin
            parent.(h) <- g;
            queue.(!tail) <- h;
            incr tail
          end
        done
      end
    done;
    let z = ref (-1) and best = ref infinity in
    for v = 0 to m - 1 do
      if parent.(v) <> -2 then begin
        let c = float_of_int ((2 * count.(v)) + 1) -. (2. *. r_bar.(v)) in
        if c < !best then begin
          best := c;
          z := v
        end
      end
    done;
    let h = ref !z in
    while parent.(!h) >= 0 do
      let g = parent.(!h) in
      let j = witness g !h in
      unplace j;
      place j !h;
      incr moves;
      h := g
    done;
    place i !h
  done;
  (assignment, counts_of_assignment t assignment)

let median_paper_network t =
  let r_bar = mean t in
  let sink = 1 + t.n + t.m in
  let source = 0 in
  (* e2 costs may be negative; every integral flow of value n saturates
     exactly n - Σ⌊r̄⌋ of them, so a uniform shift keeps the argmin. *)
  let e2_cost v =
    let lo = Float.floor r_bar.(v) and hi = Float.ceil r_bar.(v) in
    ((hi -. r_bar.(v)) ** 2.) -. ((lo -. r_bar.(v)) ** 2.)
  in
  let shift =
    List.init t.m e2_cost
    |> List.fold_left (fun acc c -> Float.max acc (-.c)) 0.
  in
  let edges = ref [] and edge_meta = ref [] in
  let push ~src ~dst ~lo ~hi ~cost meta =
    edges := { Mcf.src; dst; lo; hi; cost } :: !edges;
    edge_meta := meta :: !edge_meta
  in
  for i = 0 to t.n - 1 do
    push ~src:source ~dst:(tuple_node i) ~lo:1 ~hi:1 ~cost:0. `Source
    (* every tuple is present: its unit must flow *)
  done;
  for i = 0 to t.n - 1 do
    for v = 0 to t.m - 1 do
      if t.probs.(i).(v) > 0. then
        push ~src:(tuple_node i) ~dst:(group_node t v) ~lo:0 ~hi:1 ~cost:0.
          (`Tuple (i, v))
    done
  done;
  for v = 0 to t.m - 1 do
    let fl = int_of_float (Float.floor r_bar.(v)) in
    if fl > 0 then
      push ~src:(group_node t v) ~dst:sink ~lo:fl ~hi:fl ~cost:0. (`E1 v);
    if Float.ceil r_bar.(v) > Float.floor r_bar.(v) +. 1e-12 then
      push ~src:(group_node t v) ~dst:sink ~lo:0 ~hi:1 ~cost:(e2_cost v +. shift)
        (`E2 v)
  done;
  let edges = List.rev !edges and edge_meta = List.rev !edge_meta in
  match
    Mcf.solve_bounded ~num_nodes:(sink + 1) ~edges ~source ~sink ~flow_value:t.n
  with
  | Error msg -> invalid_arg ("Aggregate_consensus.median_paper_network: " ^ msg)
  | Ok (flows, _) ->
      let assignment = Array.make t.n (-1) in
      List.iteri
        (fun idx meta ->
          match meta with
          | `Tuple (i, v) when flows.(idx) = 1 -> assignment.(i) <- v
          | _ -> ())
        edge_meta;
      Array.iteri
        (fun i v ->
          if v < 0 then
            invalid_arg
              (Printf.sprintf "Aggregate_consensus.median_paper_network: tuple %d unassigned" i))
        assignment;
      (assignment, counts_of_assignment t assignment)

let is_possible t r =
  if Array.length r <> t.m then
    invalid_arg "Aggregate_consensus.is_possible: dimension mismatch";
  let total = Array.fold_left ( + ) 0 r in
  if total <> t.n || Array.exists (fun c -> c < 0) r then false
  else begin
    (* Right vertices: one slot per requested unit of each group. *)
    let slot_base = Array.make t.m 0 in
    let acc = ref 0 in
    Array.iteri
      (fun v c ->
        slot_base.(v) <- !acc;
        acc := !acc + c)
      r;
    let edges = ref [] in
    for i = 0 to t.n - 1 do
      for v = 0 to t.m - 1 do
        if t.probs.(i).(v) > 0. then
          for s = 0 to r.(v) - 1 do
            edges := (i, slot_base.(v) + s) :: !edges
          done
      done
    done;
    let ml = Hk.max_matching ~n_left:t.n ~n_right:total !edges in
    Hk.is_perfect_left ml
  end
