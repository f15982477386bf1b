(* The indices of the [m] largest entries of [score], best first, in
   [Float.compare]'s order (NaN lowest).  Ties go to the lower index, so the
   result is a stable descending sort's prefix.  A size-m heap whose root is
   the worst index kept: O(n log m), where sorting would cost O(n log n). *)
let top_indices score m =
  let n = Array.length score in
  let m = max 0 (min m n) in
  let worse a b =
    let c = Float.compare score.(a) score.(b) in
    c < 0 || (c = 0 && a > b)
  in
  let heap = Array.make m 0 in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let rec sift_down i size =
    let l = (2 * i) + 1 in
    if l < size then begin
      let c = if l + 1 < size && worse heap.(l + 1) heap.(l) then l + 1 else l in
      if worse heap.(c) heap.(i) then begin
        swap i c;
        sift_down c size
      end
    end
  in
  let rec sift_up i =
    let p = (i - 1) / 2 in
    if i > 0 && worse heap.(i) heap.(p) then begin
      swap i p;
      sift_up p
    end
  in
  for t = 0 to n - 1 do
    if t < m then begin
      heap.(t) <- t;
      sift_up t
    end
    else if m > 0 && worse heap.(0) t then begin
      heap.(0) <- t;
      sift_down 0 m
    end
  done;
  (* move the worst to the back, one at a time: best first *)
  for size = m - 1 downto 1 do
    swap 0 size;
    sift_down 0 size
  done;
  heap
