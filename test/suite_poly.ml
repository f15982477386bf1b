open Consensus_poly

let check_float = Alcotest.(check (float 1e-9))

let poly1_testable =
  Alcotest.testable Poly1.pp (fun p q -> Poly1.equal ~eps:1e-9 p q)

(* ---------- Poly1 unit tests ---------- *)

let test_p1_basic () =
  let p = Poly1.of_coeffs [| 1.; 2.; 3. |] in
  Alcotest.(check int) "degree" 2 (Poly1.degree p);
  check_float "coeff 1" 2. (Poly1.coeff p 1);
  check_float "coeff beyond" 0. (Poly1.coeff p 5);
  check_float "eval" (1. +. 4. +. 12.) (Poly1.eval p 2.);
  check_float "sum" 6. (Poly1.sum_coeffs p);
  check_float "expectation" (2. +. 6.) (Poly1.expectation p)

(* The Buf kernels must agree bit-for-bit with the immutable operations:
   the arena evaluators rely on that for answer identity. *)
let test_p1_buf () =
  let w = 4 in
  let of_buf b = Poly1.of_coeffs (Array.sub b 0 w) in
  let p = [| 0.3; 0.4; 0.; 0.25 |] and q = [| 0.5; 0.; 0.7; 0.1 |] in
  let pp = Poly1.of_coeffs p and pq = Poly1.of_coeffs q in
  let dst = Array.make w 0. in
  Poly1.Buf.mul_trunc_into ~p ~q ~dst ~w;
  Alcotest.check poly1_testable "mul_trunc_into" (Poly1.mul_trunc (w - 1) pp pq)
    (of_buf dst);
  Poly1.Buf.mul_trunc_acc ~p ~q ~dst ~w;
  Alcotest.check poly1_testable "mul_trunc_acc"
    (Poly1.scale 2. (Poly1.mul_trunc (w - 1) pp pq))
    (of_buf dst);
  let b = Array.copy p in
  Poly1.Buf.mul_linear_inplace ~c0:0.6 ~c1:0.4 b ~w;
  Alcotest.check poly1_testable "mul_linear_inplace"
    (Poly1.mul_trunc (w - 1) pp (Poly1.of_coeffs [| 0.6; 0.4 |]))
    (of_buf b);
  (* divide undoes multiply exactly on these coefficients *)
  Poly1.Buf.divide_linear_into ~c0:0.6 ~c1:0.4 ~src:b ~dst:b ~w;
  Alcotest.(check (array (float 1e-12))) "divide_linear_into inverts" p b;
  Alcotest.check_raises "divide by c0=0"
    (Invalid_argument "Poly1.Buf.divide_linear_into: zero constant term")
    (fun () ->
      Poly1.Buf.divide_linear_into ~c0:0. ~c1:1. ~src:b ~dst:b ~w);
  let b = Array.copy p in
  Poly1.Buf.shift_up_inplace b ~w;
  Alcotest.check poly1_testable "shift_up_inplace"
    (Poly1.mul_trunc (w - 1) pp Poly1.x)
    (of_buf b);
  Poly1.Buf.set_const b ~w 2.5;
  Alcotest.check poly1_testable "set_const" (Poly1.const 2.5) (of_buf b);
  Poly1.Buf.axpy 2. ~src:q ~dst:b ~w;
  Alcotest.check poly1_testable "axpy"
    (Poly1.add (Poly1.const 2.5) (Poly1.scale 2. pq))
    (of_buf b);
  Poly1.Buf.clear b ~w;
  Alcotest.check poly1_testable "clear" Poly1.zero (of_buf b)

let test_p1_normalization () =
  let p = Poly1.of_coeffs [| 1.; 0.; 0. |] in
  Alcotest.(check int) "trailing zeros trimmed" 0 (Poly1.degree p);
  Alcotest.(check bool) "zero is zero" true (Poly1.is_zero (Poly1.of_coeffs [| 0.; 0. |]));
  Alcotest.(check bool) "const 0 is zero" true (Poly1.is_zero (Poly1.const 0.))

let test_p1_arith () =
  let p = Poly1.of_coeffs [| 1.; 2. |] and q = Poly1.of_coeffs [| 3.; 0.; 5. |] in
  Alcotest.check poly1_testable "add" (Poly1.of_coeffs [| 4.; 2.; 5. |]) (Poly1.add p q);
  Alcotest.check poly1_testable "sub self" Poly1.zero (Poly1.sub p p);
  Alcotest.check poly1_testable "mul"
    (Poly1.of_coeffs [| 3.; 6.; 5.; 10. |])
    (Poly1.mul p q);
  Alcotest.check poly1_testable "scale" (Poly1.of_coeffs [| 2.; 4. |]) (Poly1.scale 2. p);
  Alcotest.check poly1_testable "add_const" (Poly1.of_coeffs [| 11.; 2. |]) (Poly1.add_const 10. p)

let test_p1_mul_trunc () =
  let p = Poly1.of_coeffs [| 1.; 1.; 1. |] in
  let full = Poly1.mul p p in
  let truncated = Poly1.mul_trunc 2 p p in
  Alcotest.check poly1_testable "trunc = truncate of full" (Poly1.truncate 2 full) truncated;
  Alcotest.(check int) "degree capped" 2 (Poly1.degree truncated)

let test_p1_derive_pow () =
  let p = Poly1.of_coeffs [| 1.; 2.; 3. |] in
  Alcotest.check poly1_testable "derivative" (Poly1.of_coeffs [| 2.; 6. |]) (Poly1.derive p);
  Alcotest.check poly1_testable "pow 0" Poly1.one (Poly1.pow p 0);
  Alcotest.check poly1_testable "pow 3 = p*p*p" (Poly1.mul p (Poly1.mul p p)) (Poly1.pow p 3)

let test_p1_monomial () =
  Alcotest.check poly1_testable "x" Poly1.x (Poly1.monomial 1 1.);
  check_float "coeff" 4. (Poly1.coeff (Poly1.monomial 3 4.) 3);
  Alcotest.(check bool) "zero monomial" true (Poly1.is_zero (Poly1.monomial 2 0.))

(* ---------- Poly1 property tests ---------- *)

let gen_poly1 =
  QCheck.Gen.(
    map
      (fun l -> Poly1.of_coeffs (Array.of_list l))
      (list_size (int_range 0 8) (float_range (-10.) 10.)))

let arb_poly1 = QCheck.make ~print:Poly1.to_string gen_poly1

let prop_eval_add =
  QCheck.Test.make ~name:"poly1 eval distributes over add" ~count:200
    (QCheck.pair arb_poly1 arb_poly1) (fun (p, q) ->
      let v = 0.7 in
      Consensus_util.Fcmp.approx ~eps:1e-6
        (Poly1.eval (Poly1.add p q) v)
        (Poly1.eval p v +. Poly1.eval q v))

let prop_eval_mul =
  QCheck.Test.make ~name:"poly1 eval distributes over mul" ~count:200
    (QCheck.pair arb_poly1 arb_poly1) (fun (p, q) ->
      let v = -0.3 in
      Consensus_util.Fcmp.approx ~eps:1e-6
        (Poly1.eval (Poly1.mul p q) v)
        (Poly1.eval p v *. Poly1.eval q v))

let prop_mul_commutative =
  QCheck.Test.make ~name:"poly1 mul commutative" ~count:200
    (QCheck.pair arb_poly1 arb_poly1) (fun (p, q) ->
      Poly1.equal ~eps:1e-9 (Poly1.mul p q) (Poly1.mul q p))

let prop_trunc_consistent =
  QCheck.Test.make ~name:"poly1 mul_trunc = truncate mul" ~count:200
    (QCheck.triple arb_poly1 arb_poly1 (QCheck.int_range 0 10)) (fun (p, q, d) ->
      Poly1.equal ~eps:1e-9 (Poly1.mul_trunc d p q) (Poly1.truncate d (Poly1.mul p q)))

(* ---------- Bipoly ---------- *)

let test_bipoly_mul () =
  (* (1 + x) * (0.5 + 0.5 y) = 0.5 + 0.5 x + (0.5 + 0.5 x) y *)
  let p = Bipoly.add_const 1. Bipoly.x in
  let q = Bipoly.add (Bipoly.const 0.5) (Bipoly.scale 0.5 Bipoly.y) in
  let r = Bipoly.mul p q in
  check_float "a0" 0.5 (Poly1.coeff r.Bipoly.a 0);
  check_float "a1" 0.5 (Poly1.coeff r.Bipoly.a 1);
  check_float "b0" 0.5 (Poly1.coeff r.Bipoly.b 0);
  check_float "b1" 0.5 (Poly1.coeff r.Bipoly.b 1)

let test_bipoly_trunc () =
  let p = Bipoly.add_const 1. Bipoly.x in
  let r = Bipoly.mul ~trunc:1 (Bipoly.mul ~trunc:1 p p) p in
  Alcotest.(check int) "degree capped" 1 (Poly1.degree r.Bipoly.a)

let test_bipoly_vs_poly1_products () =
  (* The Bipoly product is the two-variable product with its y^2 terms
     dropped, (a + b·y)(c + d·y) = ac + (ad + bc)·y: exact while one factor
     carries y, and the first-order (dual number) part when several do, as
     for 1 + y. *)
  let fs = [ Bipoly.add_const 0.3 (Bipoly.scale 0.7 Bipoly.x);
             Bipoly.add_const 0.5 (Bipoly.scale 0.5 Bipoly.y);
             Bipoly.add_const 0.2 (Bipoly.scale 0.8 Bipoly.x);
             Bipoly.make ~a:Poly1.one ~b:Poly1.one;
             Bipoly.add (Bipoly.scale 0.4 Bipoly.x) (Bipoly.scale 0.6 Bipoly.y) ] in
  let b = List.fold_left Bipoly.mul Bipoly.one fs in
  let y0, y1 =
    List.fold_left
      (fun (y0, y1) (f : Bipoly.t) ->
        (Poly1.mul y0 f.a, Poly1.add (Poly1.mul y0 f.b) (Poly1.mul y1 f.a)))
      (Poly1.one, Poly1.zero) fs
  in
  Alcotest.check poly1_testable "y^0 part" y0 b.Bipoly.a;
  Alcotest.check poly1_testable "y^1 part" y1 b.Bipoly.b;
  Alcotest.(check bool) "y^2 dropped" true
    (Bipoly.equal (Bipoly.mul Bipoly.y Bipoly.y) Bipoly.zero)

let prop_divide_linear_inverts_mul =
  QCheck.Test.make ~name:"poly1 divide_linear inverts linear mul" ~count:200
    (QCheck.pair arb_poly1 (QCheck.pair (QCheck.float_range 0.2 2.) (QCheck.float_range (-2.) 2.)))
    (fun (g, (c0, c1)) ->
      let f = Poly1.mul (Poly1.of_coeffs [| c0; c1 |]) g in
      let g' = Poly1.divide_linear f ~c0 ~c1 in
      Poly1.equal ~eps:1e-6 g g')

let prop_divide_linear_truncated =
  QCheck.Test.make ~name:"poly1 divide_linear respects truncation" ~count:200
    (QCheck.pair arb_poly1 (QCheck.int_range 0 6)) (fun (g, d) ->
      let c0 = 0.7 and c1 = 0.3 in
      let f = Poly1.mul_trunc d (Poly1.of_coeffs [| c0; c1 |]) g in
      let g' = Poly1.divide_linear ~trunc:d f ~c0 ~c1 in
      Poly1.equal ~eps:1e-6 (Poly1.truncate d g) g')

let props =
  List.map (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]) t)
    [ prop_eval_add; prop_eval_mul; prop_mul_commutative; prop_trunc_consistent;
      prop_divide_linear_inverts_mul; prop_divide_linear_truncated ]

let suite =
  [
    Alcotest.test_case "poly1 basics" `Quick test_p1_basic;
    Alcotest.test_case "poly1 normalization" `Quick test_p1_normalization;
    Alcotest.test_case "poly1 arithmetic" `Quick test_p1_arith;
    Alcotest.test_case "poly1 mul_trunc" `Quick test_p1_mul_trunc;
    Alcotest.test_case "poly1 buf kernels" `Quick test_p1_buf;
    Alcotest.test_case "poly1 derive/pow" `Quick test_p1_derive_pow;
    Alcotest.test_case "poly1 monomial" `Quick test_p1_monomial;
    Alcotest.test_case "bipoly mul" `Quick test_bipoly_mul;
    Alcotest.test_case "bipoly trunc" `Quick test_bipoly_trunc;
    Alcotest.test_case "bipoly vs poly1 products" `Quick test_bipoly_vs_poly1_products;
  ]
  @ props
