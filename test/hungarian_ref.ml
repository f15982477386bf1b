(* The Kuhn–Munkres solver that [Hungarian] replaced, kept as the test
   reference: a potential-based Hungarian method in O(rows² · cols), which
   starts every row's Dijkstra from scratch and updates all duals on each
   step.  The differential tests compare answers and totals with it. *)

let minimize cost =
  let n = Array.length cost in
  let m = if n = 0 then 0 else Array.length cost.(0) in
  if n = 0 then ([||], 0.)
  else begin
    if n > m then invalid_arg "Hungarian.minimize: more rows than columns";
    Array.iter
      (fun row ->
        if Array.length row <> m then
          invalid_arg "Hungarian.minimize: ragged cost matrix";
        Array.iter
          (fun c ->
            if not (Float.is_finite c) then
              invalid_arg "Hungarian.minimize: non-finite cost")
          row)
      cost;
    (* 1-based arrays in the classic formulation: p.(j) is the row matched to
       column j (0 = free); u, v are the dual potentials. *)
    let u = Array.make (n + 1) 0. in
    let v = Array.make (m + 1) 0. in
    let p = Array.make (m + 1) 0 in
    let way = Array.make (m + 1) 0 in
    let minv = Array.make (m + 1) infinity in
    let used = Array.make (m + 1) false in
    for i = 1 to n do
      p.(0) <- i;
      let j0 = ref 0 in
      Array.fill minv 0 (m + 1) infinity;
      Array.fill used 0 (m + 1) false;
      let continue = ref true in
      while !continue do
        used.(!j0) <- true;
        let i0 = p.(!j0) in
        let row = cost.(i0 - 1) and ui = u.(i0) in
        let delta = ref infinity in
        let j1 = ref 0 in
        (* j ranges over 1..m and every array here has m + 1 cells (row
           has m), so the scan reads unchecked. *)
        for j = 1 to m do
          if not (Array.unsafe_get used j) then begin
            let cur =
              Array.unsafe_get row (j - 1) -. ui -. Array.unsafe_get v j
            in
            if cur < Array.unsafe_get minv j then begin
              Array.unsafe_set minv j cur;
              Array.unsafe_set way j !j0
            end;
            if Array.unsafe_get minv j < !delta then begin
              delta := Array.unsafe_get minv j;
              j1 := j
            end
          end
        done;
        for j = 0 to m do
          if used.(j) then begin
            u.(p.(j)) <- u.(p.(j)) +. !delta;
            v.(j) <- v.(j) -. !delta
          end
          else minv.(j) <- minv.(j) -. !delta
        done;
        j0 := !j1;
        if p.(!j0) = 0 then continue := false
      done;
      (* Unwind the augmenting path. *)
      let j0 = ref !j0 in
      while !j0 <> 0 do
        let j1 = way.(!j0) in
        p.(!j0) <- p.(j1);
        j0 := j1
      done
    done;
    let assignment = Array.make n (-1) in
    for j = 1 to m do
      if p.(j) > 0 then assignment.(p.(j) - 1) <- j - 1
    done;
    let total = ref 0. in
    for i = 0 to n - 1 do
      total := !total +. cost.(i).(assignment.(i))
    done;
    (assignment, !total)
  end
