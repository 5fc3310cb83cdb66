(** Binary epsilon-agreement (Section 2), discretized with epsilon = 1/k:
    inputs in {0, 1}, outputs of the form m/k in [0, 1] such that

    - validity: if every process starts with the same x, every decision is x;
    - agreement: all decisions are at most 1/k apart (exact rationals). *)

val task : n:int -> k:int -> (int, Bits.Rational.t) Task.t
(** @raise Invalid_argument unless [k >= 1]. *)

val epsilon : k:int -> Bits.Rational.t
(** [1/k]. *)
