type t = { a : Poly1.t; b : Poly1.t }

let make ~a ~b = { a; b }
let zero = { a = Poly1.zero; b = Poly1.zero }
let one = { a = Poly1.one; b = Poly1.zero }
let const c = { a = Poly1.const c; b = Poly1.zero }
let x = { a = Poly1.x; b = Poly1.zero }
let y = { a = Poly1.zero; b = Poly1.one }
let scale c p = { a = Poly1.scale c p.a; b = Poly1.scale c p.b }
let add p q = { a = Poly1.add p.a q.a; b = Poly1.add p.b q.b }
let add_const c p = { p with a = Poly1.add_const c p.a }

let mul1 ?trunc p q =
  match trunc with
  | None -> Poly1.mul p q
  | Some d -> Poly1.mul_trunc d p q

let mul ?trunc p q =
  {
    a = mul1 ?trunc p.a q.a;
    b = Poly1.add (mul1 ?trunc p.a q.b) (mul1 ?trunc p.b q.a);
  }

let equal ?eps p q = Poly1.equal ?eps p.a q.a && Poly1.equal ?eps p.b q.b

let pp ppf p =
  Format.fprintf ppf "(%a) + (%a) y" Poly1.pp p.a Poly1.pp p.b
