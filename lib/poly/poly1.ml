type t = float array
(* Invariant: length >= 1, and the last entry is non-zero unless the length
   is 1 (the zero polynomial is [| 0. |]). *)

let normalize a =
  let n = Array.length a in
  let d = ref (n - 1) in
  while !d > 0 && a.(!d) = 0. do
    decr d
  done;
  if !d = n - 1 then a else Array.sub a 0 (!d + 1)

let zero = [| 0. |]
let one = [| 1. |]
let const c = if c = 0. then zero else [| c |]
let x = [| 0.; 1. |]

let monomial i c =
  if i < 0 then invalid_arg "Poly1.monomial: negative degree";
  if c = 0. then zero
  else begin
    let a = Array.make (i + 1) 0. in
    a.(i) <- c;
    a
  end

let of_coeffs a =
  if Array.length a = 0 then zero else normalize (Array.copy a)

let degree p = Array.length p - 1
let coeff p i = if i < 0 || i > degree p then 0. else p.(i)
let coeffs p = Array.copy p
let is_zero p = Array.length p = 1 && p.(0) = 0.

let add p q =
  let n = max (Array.length p) (Array.length q) in
  normalize (Array.init n (fun i -> coeff p i +. coeff q i))

let sub p q =
  let n = max (Array.length p) (Array.length q) in
  normalize (Array.init n (fun i -> coeff p i -. coeff q i))

let scale c p =
  if c = 0. then zero else normalize (Array.map (fun v -> c *. v) p)

let add_const c p =
  let a = Array.copy p in
  a.(0) <- a.(0) +. c;
  normalize a

let mul p q =
  if is_zero p || is_zero q then zero
  else begin
    let dp = degree p and dq = degree q in
    let r = Array.make (dp + dq + 1) 0. in
    for i = 0 to dp do
      let pi = p.(i) in
      if pi <> 0. then
        for j = 0 to dq do
          r.(i + j) <- r.(i + j) +. (pi *. q.(j))
        done
    done;
    normalize r
  end

let truncate d p =
  if d < 0 then invalid_arg "Poly1.truncate: negative degree";
  if degree p <= d then p else normalize (Array.sub p 0 (d + 1))

let mul_trunc d p q =
  if d < 0 then invalid_arg "Poly1.mul_trunc: negative degree";
  if is_zero p || is_zero q then zero
  else begin
    let dp = min d (degree p) and dq = min d (degree q) in
    let r = Array.make (min d (dp + dq) + 1) 0. in
    for i = 0 to dp do
      let pi = p.(i) in
      if pi <> 0. then
        for j = 0 to min dq (d - i) do
          r.(i + j) <- r.(i + j) +. (pi *. q.(j))
        done
    done;
    normalize r
  end

let eval p v =
  let acc = ref 0. in
  for i = degree p downto 0 do
    acc := (!acc *. v) +. p.(i)
  done;
  !acc

let sum_coeffs p = Array.fold_left ( +. ) 0. p

let expectation p =
  let acc = ref 0. in
  Array.iteri (fun i c -> acc := !acc +. (float_of_int i *. c)) p;
  !acc

let divide_linear ?trunc f ~c0 ~c1 =
  if c0 = 0. then invalid_arg "Poly1.divide_linear: zero constant term";
  let deg_f = degree f in
  let deg_g =
    match trunc with Some d -> min d deg_f | None -> max 0 (deg_f - 1)
  in
  let g = Array.make (deg_g + 1) 0. in
  for i = 0 to deg_g do
    let prev = if i = 0 then 0. else c1 *. g.(i - 1) in
    g.(i) <- (coeff f i -. prev) /. c0
  done;
  normalize g

let derive p =
  if degree p = 0 then zero
  else normalize (Array.init (degree p) (fun i -> float_of_int (i + 1) *. p.(i + 1)))

let pow p k =
  if k < 0 then invalid_arg "Poly1.pow: negative exponent";
  let rec go acc base k =
    if k = 0 then acc
    else
      let acc = if k land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (k lsr 1)
  in
  go one p k

let equal ?eps p q =
  let n = max (Array.length p) (Array.length q) in
  let rec go i =
    i >= n || (Consensus_util.Fcmp.approx ?eps (coeff p i) (coeff q i) && go (i + 1))
  in
  go 0

(* In-place kernels over raw coefficient buffers, for the allocation-free
   arena evaluators (lib/anxor).  A polynomial is the first [w] cells of a
   float array truncated at degree [w - 1]; cells beyond the working width
   are ignored.  Operating over the full width instead of tracked degrees
   trades a few multiplies by exact zeros for never allocating: the extra
   terms contribute exact 0. additions, so results match the immutable ops
   bit for bit. *)
module Buf = struct
  let clear buf ~w = Array.fill buf 0 w 0.

  let set_const buf ~w c =
    Array.fill buf 0 w 0.;
    buf.(0) <- c

  let blit ~src ~dst ~w = Array.blit src 0 dst 0 w

  let is_zero buf ~w =
    let i = ref 0 in
    while !i < w && Array.unsafe_get buf !i = 0. do
      incr i
    done;
    !i = w

  let add_into ~src ~dst ~w =
    for i = 0 to w - 1 do
      Array.unsafe_set dst i
        (Array.unsafe_get dst i +. Array.unsafe_get src i)
    done

  let axpy c ~src ~dst ~w =
    for i = 0 to w - 1 do
      Array.unsafe_set dst i
        (Array.unsafe_get dst i +. (c *. Array.unsafe_get src i))
    done

  let mul_trunc_acc ~p ~q ~dst ~w =
    for i = 0 to w - 1 do
      let pi = Array.unsafe_get p i in
      if pi <> 0. then
        for j = 0 to w - 1 - i do
          Array.unsafe_set dst (i + j)
            (Array.unsafe_get dst (i + j) +. (pi *. Array.unsafe_get q j))
        done
    done

  let mul_trunc_into ~p ~q ~dst ~w =
    clear dst ~w;
    mul_trunc_acc ~p ~q ~dst ~w

  (* buf <- (c0 + c1 x) * buf mod x^w, in place (backward sweep).  The
     addition order matches [mul_trunc w buf [|c0; c1|]]. *)
  let mul_linear_inplace ~c0 ~c1 buf ~w =
    for i = w - 1 downto 1 do
      Array.unsafe_set buf i
        ((c1 *. Array.unsafe_get buf (i - 1)) +. (c0 *. Array.unsafe_get buf i))
    done;
    buf.(0) <- c0 *. buf.(0)

  let shift_up_inplace buf ~w =
    for i = w - 1 downto 1 do
      Array.unsafe_set buf i (Array.unsafe_get buf (i - 1))
    done;
    buf.(0) <- 0.

  (* dst <- src / (c0 + c1 x) mod x^w; the forward recurrence of
     [divide_linear].  [dst] may alias [src]. *)
  (* The previous quotient coefficient is re-read from [dst] rather than
     carried in a ref: a float ref would box on every assignment.  With
     [dst] aliasing [src], [dst.(i-1)] is final before [src.(i)] is read. *)
  let divide_linear_into ~c0 ~c1 ~src ~dst ~w =
    if c0 = 0. then invalid_arg "Poly1.Buf.divide_linear_into: zero constant term";
    Array.unsafe_set dst 0 (Array.unsafe_get src 0 /. c0);
    for i = 1 to w - 1 do
      Array.unsafe_set dst i
        ((Array.unsafe_get src i -. (c1 *. Array.unsafe_get dst (i - 1))) /. c0)
    done
end

let pp ppf p =
  if is_zero p then Format.pp_print_string ppf "0"
  else begin
    let first = ref true in
    Array.iteri
      (fun i c ->
        if c <> 0. then begin
          if not !first then Format.pp_print_string ppf " + ";
          first := false;
          match i with
          | 0 -> Format.fprintf ppf "%g" c
          | 1 -> if c = 1. then Format.pp_print_string ppf "x" else Format.fprintf ppf "%g x" c
          | _ -> if c = 1. then Format.fprintf ppf "x^%d" i else Format.fprintf ppf "%g x^%d" c i
        end)
      p
  end

let to_string p = Format.asprintf "%a" pp p
