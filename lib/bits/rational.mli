(** Exact rational arithmetic.

    The approximate-agreement tasks of the paper produce outputs of the form
    [m/k]; the "at most epsilon apart" checks must be exact, so all decision
    values flow through this module rather than floats. Values are kept in
    normal form: positive denominator, numerator and denominator coprime. *)

type t

val make : int -> int -> t
(** [make num den] is the rational [num/den] in normal form.
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t
val half : t

val num : t -> int
val den : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val abs : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val spread : t list -> t
(** [spread vs] is [max vs - min vs]; the agreement distance of a set of
    decisions. [spread []] is {!zero}. *)

val to_float : t -> float
val pp : Format.formatter -> t -> unit
val to_string : t -> string
