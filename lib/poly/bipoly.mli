(** Bivariate polynomials that are linear in the second variable.

    A value represents [a(x) + b(x) * y] with the [y^2] term dropped: a
    dual number [a + b·ε] over univariate polynomials.  Two uses give that
    shape exactly:

    - rank computations (Example 3, §3.3) attach [y] to a single leaf, so
      every generating function is linear in [y]; exploiting this gives
      the O(nk) rank-distribution algorithm;
    - Jaccard's Lemma 1 (§4.2) maps a leaf to [1 + y], so [b] is the
      derivative of the generating function in that leaf's variable at 1.

    The [x]-degree can be capped ([trunc]) so products stay O(k) wide. *)

type t = { a : Poly1.t; b : Poly1.t }
(** [a] is the coefficient of [y^0], [b] of [y^1]. *)

val make : a:Poly1.t -> b:Poly1.t -> t
val zero : t
val one : t
val const : float -> t

val x : t
(** The monomial [x]. *)

val y : t
(** The monomial [y]. *)

val scale : float -> t -> t
val add : t -> t -> t
val add_const : float -> t -> t

val mul : ?trunc:int -> t -> t -> t
(** Product, dropping the [y^2] term: exact for dual numbers, and for
    generating functions in which [y] marks a single leaf.  [trunc] caps
    the x-degree. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
