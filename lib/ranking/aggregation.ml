open Consensus_util

let check_square pref name =
  let n = Array.length pref in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg (name ^ ": ragged matrix"))
    pref;
  n

let cost pref order =
  let n = Array.length order in
  let acc = ref 0. in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      acc := !acc +. pref.(order.(b)).(order.(a))
    done
  done;
  !acc

(* Held–Karp over the items [items] (ascending ids): returns their order.
   Positions index [items], so the DP only ever sees its own submatrix. *)
let held_karp pref items =
  let n = Array.length items in
  let size = 1 lsl n in
  (* Subset sums of every row over the two halves of the items, h = n/2:
     lo.(m * n + v) = Σ pref.(v).(u) over the bits u of m (u < h),
     hi.(m * n + v) = the same over the bits u - h of m (u >= h).
     Each entry adds its highest item to the entry without it, so both
     halves sum in increasing item order. *)
  let h = n / 2 in
  let subset_sums sets offset =
    let table = Array.make (sets * n) 0. in
    let top = ref 0 in
    for m = 1 to sets - 1 do
      if m = 2 lsl !top then incr top;
      let here = m * n and prev = (m lxor (1 lsl !top)) * n in
      let u = items.(offset + !top) in
      for v = 0 to n - 1 do
        table.(here + v) <- table.(prev + v) +. pref.(items.(v)).(u)
      done
    done;
    table
  in
  let lo = subset_sums (1 lsl h) 0 and hi = subset_sums (1 lsl (n - h)) h in
  let dp = Array.make size infinity in
  let choice = Array.make size (-1) in
  dp.(0) <- 0.;
  (* dp.(mask): minimum cost of ordering the items of [mask] as a prefix.
     Appending v after the set [mask] pays pref.(v).(u) for all u in mask
     (v is ordered after every u, so each pair (u, v) contributes the
     weight of preferring v before u): two table loads.  Each set tries
     its last item v from the highest down and keeps a later v only when
     it is cheaper by more than 1e-15, so among tied orders the highest
     item goes last (an all-equal matrix gives the identity order). *)
  let lmask = (1 lsl h) - 1 in
  for mask = 1 to size - 1 do
    (* Cooperative cancellation: an expired request must be able to bail
       out mid-subset-sweep. *)
    if mask land 0xfff = 0 then Deadline.check_current ();
    let best = ref infinity and last = ref (-1) in
    (* An item v outside [mask] needs no test: [prev] is then a superset
       of [mask], still at infinity, so its candidate never wins. *)
    for v = n - 1 downto 0 do
      let prev = mask lxor (1 lsl v) in
      let extra =
        lo.(((prev land lmask) * n) + v) +. hi.(((prev lsr h) * n) + v)
      in
      let c = dp.(prev) +. extra in
      if c < !best -. 1e-15 then begin
        best := c;
        last := v
      end
    done;
    dp.(mask) <- !best;
    choice.(mask) <- !last
  done;
  let order = Array.make n 0 in
  let mask = ref (size - 1) in
  for pos = n - 1 downto 0 do
    let v = choice.(!mask) in
    order.(pos) <- items.(v);
    mask := !mask lxor (1 lsl v)
  done;
  order

let condorcet_components pref =
  let n = check_square pref "Aggregation.condorcet_components" in
  if n >= Sys.int_size then
    invalid_arg "Aggregation.condorcet_components: n too large";
  (* reach.(a): the items a may precede, directly or through others, where
     a may precede b unless b is preferred before a by more than 1e-15 (the
     DP's tie tolerance).  The relation is semicomplete, so its strongly
     connected components are totally ordered and an earlier component
     reaches strictly more items: a stable sort by reach count lays them
     out in order, each in increasing item order. *)
  let reach =
    Array.init n (fun a ->
        let m = ref 0 in
        for b = n - 1 downto 0 do
          m := (!m lsl 1) lor Bool.to_int (not (pref.(b).(a) > pref.(a).(b) +. 1e-15))
        done;
        !m)
  in
  for k = 0 to n - 1 do
    let rk = reach.(k) in
    for i = 0 to n - 1 do
      if reach.(i) land (1 lsl k) <> 0 then reach.(i) <- reach.(i) lor rk
    done
  done;
  let rec popcount m c = if m = 0 then c else popcount (m land (m - 1)) (c + 1) in
  let reached = Array.map (fun m -> popcount m 0) reach in
  let items = Array.init n Fun.id in
  Array.stable_sort (fun a b -> Int.compare reached.(b) reached.(a)) items;
  let rec split start acc =
    if start = n then Array.of_list (List.rev acc)
    else begin
      let stop = ref (start + 1) in
      while !stop < n && reached.(items.(!stop)) = reached.(items.(start)) do incr stop done;
      split !stop (Array.sub items start (!stop - start) :: acc)
    end
  in
  split 0 []

let kemeny_exact pref =
  let n = check_square pref "Aggregation.kemeny_exact" in
  if n > 22 then invalid_arg "Aggregation.kemeny_exact: n too large (max 22)";
  if n = 0 then ([||], 0.)
  else begin
    Deadline.check_current ();
    (* By the extended Condorcet criterion every optimal order keeps the
       components in their forced order; only their insides are searched. *)
    let order =
      Array.to_list (condorcet_components pref)
      |> List.map (fun c -> if Array.length c > 1 then held_karp pref c else c)
      |> Array.concat
    in
    (* The cost is summed as one DP over all n items sums it along this
       order: appending v pays the low-half sum plus the high-half sum of
       pref.(v).(u) over the items u already placed, each in increasing
       item order.  So its bits do not depend on the split. *)
    let h = n / 2 in
    let placed = ref 0 and total = ref 0. in
    Array.iter
      (fun v ->
        let lo = ref 0. and hi = ref 0. in
        for u = 0 to h - 1 do
          if !placed land (1 lsl u) <> 0 then lo := !lo +. pref.(v).(u)
        done;
        for u = h to n - 1 do
          if !placed land (1 lsl u) <> 0 then hi := !hi +. pref.(v).(u)
        done;
        total := !total +. (!lo +. !hi);
        placed := !placed lor (1 lsl v))
      order;
    (order, !total)
  end

let pivot rng pref =
  let n = check_square pref "Aggregation.pivot" in
  let rec sort items =
    match items with
    | [] -> []
    | _ ->
        let arr = Array.of_list items in
        let p = arr.(Prng.int rng (Array.length arr)) in
        let rest = List.filter (fun i -> i <> p) items in
        let before, after =
          List.partition (fun i -> pref.(i).(p) > pref.(p).(i)) rest
        in
        sort before @ (p :: sort after)
  in
  let order = Array.of_list (sort (List.init n Fun.id)) in
  (order, cost pref order)

let best_pivot_of rng ~trials pref =
  if trials <= 0 then invalid_arg "Aggregation.best_pivot_of: trials must be positive";
  let best = ref None in
  for _ = 1 to trials do
    let order, c = pivot rng pref in
    match !best with
    | Some (_, bc) when bc <= c -> ()
    | _ -> best := Some (order, c)
  done;
  Option.get !best

let local_search pref order0 =
  let n = Array.length order0 in
  let order = Array.copy order0 in
  let current = ref (cost pref order) in
  let improved = ref true in
  while !improved do
    improved := false;
    Deadline.check_current ();
    for i = 0 to n - 1 do
      (* Try moving the item at position i to every other position; compute
         the delta incrementally by sweeping the insertion point. *)
      let item = order.(i) in
      (* Cost delta of swapping item across its neighbor at position j. *)
      let best_delta = ref 0. and best_pos = ref i in
      (* Move left. *)
      let delta = ref 0. in
      for j = i - 1 downto 0 do
        let other = order.(j) in
        (* item moves before other *)
        delta := !delta +. pref.(other).(item) -. pref.(item).(other);
        if !delta < !best_delta -. 1e-12 then begin
          best_delta := !delta;
          best_pos := j
        end
      done;
      (* Move right. *)
      let delta = ref 0. in
      for j = i + 1 to n - 1 do
        let other = order.(j) in
        delta := !delta +. pref.(item).(other) -. pref.(other).(item);
        if !delta < !best_delta -. 1e-12 then begin
          best_delta := !delta;
          best_pos := j
        end
      done;
      if !best_pos <> i then begin
        (* Perform the move. *)
        if !best_pos < i then begin
          Array.blit order !best_pos order (!best_pos + 1) (i - !best_pos);
          order.(!best_pos) <- item
        end
        else begin
          Array.blit order (i + 1) order i (!best_pos - i);
          order.(!best_pos) <- item
        end;
        current := !current +. !best_delta;
        improved := true
      end
    done
  done;
  (order, cost pref order)
