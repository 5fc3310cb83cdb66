(** Register bit budgets.

    The central resource of the paper is the number of bits a shared register
    can hold. Every register in the simulator carries a {!budget}; every write
    is checked against it through a {{!measure}measure} describing how many
    bits the written value occupies. Exceeding the budget raises {!Overflow}
    so "this algorithm uses b-bit registers" is machine-enforced. *)

type budget =
  | Bounded of int  (** at most this many bits per register *)
  | Unbounded  (** the full-information setting *)

exception Overflow of { budget : int; needed : int }

val check : budget -> int -> unit
(** [check budget needed] raises {!Overflow} when a [needed]-bit value does
    not fit in [budget]. *)

val bits_for : int -> int
(** [bits_for n] is the number of bits of the fixed-width unsigned encoding
    able to hold all of [0..n]; [bits_for 0 = 0].
    @raise Invalid_argument on negative [n]. *)

(** {1 Measures}

    A measure assigns a bit size to each value of a type. Measures compose so
    an algorithm can declare the exact layout of its register contents. *)

type 'a measure = 'a -> int

val bit : bool measure
(** One bit. *)

val uint : max:int -> int measure
(** Fixed-width unsigned integer field able to hold [0..max].
    @raise Invalid_argument when applied to a value outside the range. *)

val enum : cardinal:int -> 'a measure
(** A value from a known finite set of [cardinal] elements, stored as an
    index. *)

val option : 'a measure -> 'a option measure
(** One presence bit plus the payload (absent payload costs its maximal size
    is {e not} assumed; [None] costs 1 bit). *)

val pair : 'a measure -> 'b measure -> ('a * 'b) measure

val unbounded : 'a measure
(** Measure for values kept in unbounded registers: always 0 bits, i.e. never
    triggers {!Overflow}. Only meaningful together with {!Unbounded} or when
    the size genuinely does not matter. *)
