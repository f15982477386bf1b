(** Dense univariate polynomials with float coefficients.

    The workhorse of the generating-function method (paper §3.3): assigning
    the same variable [x] to a set of leaves of an and/xor tree and expanding
    the tree's generating function yields, e.g., the distribution of the size
    of the possible world (Theorem 1, Examples 1–2).

    Values are immutable.  Coefficient [i] of [p] is the coefficient of
    [x^i].  Representations are kept normalized: the leading coefficient is
    non-zero (except for the zero polynomial, represented with degree 0). *)

type t

val zero : t
val one : t

val const : float -> t
(** Constant polynomial. *)

val x : t
(** The monomial [x]. *)

val monomial : int -> float -> t
(** [monomial i c] is [c * x^i].  [i >= 0]. *)

val of_coeffs : float array -> t
(** Coefficients in increasing degree; the array is copied. *)

val coeff : t -> int -> float
(** [coeff p i] is the coefficient of [x^i] (0 beyond the degree). *)

val coeffs : t -> float array
(** Fresh array of coefficients, length [degree p + 1]. *)

val degree : t -> int
(** Degree of the polynomial; the zero polynomial has degree 0. *)

val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val add_const : float -> t -> t

val mul_trunc : int -> t -> t -> t
(** [mul_trunc d p q] is [p * q] with all terms of degree > [d] dropped.
    This is what makes the O(nk) top-k computations possible. *)

val truncate : int -> t -> t
(** Drop all terms of degree > [d]. *)

val eval : t -> float -> float
(** Horner evaluation. *)

val sum_coeffs : t -> float
(** Sum of all coefficients, i.e. [eval p 1.] computed exactly. *)

val expectation : t -> float
(** [sum_i i * coeff p i]: the mean of the distribution encoded by [p] when
    its coefficients are probabilities. *)

val divide_linear : ?trunc:int -> t -> c0:float -> c1:float -> t
(** [divide_linear f ~c0 ~c1] is the quotient [g] with
    [f = (c0 + c1·x)·g], assuming exact divisibility; with [trunc], both
    [f] and [g] are interpreted modulo [x^{trunc+1}] (the forward
    recurrence [g_i = (f_i - c1·g_{i-1}) / c0] is truncation-stable).
    Requires [c0 <> 0]; numerically ill-conditioned when [|c0|] is tiny —
    callers should fall back to recomputing the product then. *)

val derive : t -> t
(** Formal derivative. *)

val pow : t -> int -> t
(** Non-negative integer power by repeated squaring. *)

val equal : ?eps:float -> t -> t -> bool
(** Coefficient-wise tolerant equality. *)

(** In-place kernels over raw coefficient buffers for allocation-free inner
    loops (the flat-arena evaluators of [lib/anxor]).  A polynomial is the
    first [w] cells of a [float array], coefficients in increasing degree,
    truncated at degree [w - 1].  No function here allocates.  Working over
    the fixed width [w] (rather than tracked degrees) only adds exact [0.]
    terms, so results agree bit-for-bit with the immutable operations. *)
module Buf : sig
  val clear : float array -> w:int -> unit

  val set_const : float array -> w:int -> float -> unit
  (** Zero the buffer and set coefficient 0. *)

  val blit : src:float array -> dst:float array -> w:int -> unit

  val is_zero : float array -> w:int -> bool
  (** Every one of the first [w] cells is [0.] (or [-0.]). *)

  val add_into : src:float array -> dst:float array -> w:int -> unit
  (** [dst += src]. *)

  val axpy : float -> src:float array -> dst:float array -> w:int -> unit
  (** [dst += c * src]. *)

  val mul_trunc_into : p:float array -> q:float array -> dst:float array -> w:int -> unit
  (** [dst <- p * q mod x^w].  [dst] must not alias [p] or [q]. *)

  val mul_trunc_acc : p:float array -> q:float array -> dst:float array -> w:int -> unit
  (** [dst += p * q mod x^w].  [dst] must not alias [p] or [q]. *)

  val mul_linear_inplace : c0:float -> c1:float -> float array -> w:int -> unit
  (** [buf <- (c0 + c1 x) * buf mod x^w], in place; the addition order
      matches [mul_trunc]. *)

  val shift_up_inplace : float array -> w:int -> unit
  (** [buf <- x * buf mod x^w], in place. *)

  val divide_linear_into :
    c0:float -> c1:float -> src:float array -> dst:float array -> w:int -> unit
  (** The forward recurrence of {!divide_linear} modulo [x^w]; [dst] may
      alias [src].  Requires [c0 <> 0.]. *)
end

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. ["0.3 + 0.4 x + 0.3 x^2"]. *)

val to_string : t -> string
