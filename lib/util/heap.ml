type 'a t = {
  mutable prio : float array;
  mutable data : 'a option array;
  mutable n : int;
}

let create () = { prio = Array.make 16 0.; data = Array.make 16 None; n = 0 }
let is_empty h = h.n = 0
let size h = h.n

let swap h i j =
  let p = h.prio.(i) in
  h.prio.(i) <- h.prio.(j);
  h.prio.(j) <- p;
  let d = h.data.(i) in
  h.data.(i) <- h.data.(j);
  h.data.(j) <- d

let grow h =
  if h.n >= Array.length h.prio then begin
    let cap = 2 * Array.length h.prio in
    let prio = Array.make cap 0. and data = Array.make cap None in
    Array.blit h.prio 0 prio 0 h.n;
    Array.blit h.data 0 data 0 h.n;
    h.prio <- prio;
    h.data <- data
  end

let push h p x =
  grow h;
  h.prio.(h.n) <- p;
  h.data.(h.n) <- Some x;
  let i = ref h.n in
  h.n <- h.n + 1;
  while !i > 0 && h.prio.((!i - 1) / 2) < h.prio.(!i) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let peek_max h = if h.n = 0 then None else Some (h.prio.(0), Option.get h.data.(0))

let pop_max h =
  if h.n = 0 then None
  else begin
    let result = (h.prio.(0), Option.get h.data.(0)) in
    h.n <- h.n - 1;
    h.prio.(0) <- h.prio.(h.n);
    h.data.(0) <- h.data.(h.n);
    h.data.(h.n) <- None;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let largest = ref !i in
      if l < h.n && h.prio.(l) > h.prio.(!largest) then largest := l;
      if r < h.n && h.prio.(r) > h.prio.(!largest) then largest := r;
      if !largest <> !i then begin
        swap h !i !largest;
        i := !largest
      end
      else continue := false
    done;
    Some result
  end

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
