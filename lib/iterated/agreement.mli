(** Binary epsilon-agreement in the iterated models: write the current
    estimate, move to the midpoint of the estimates seen.

    In the IIS model the views of one round are totally ordered by
    containment, so midpoints of nested sets are within half of the round's
    spread: [rounds] rounds give agreement within [1/2^rounds] for any
    number of processes. (In the IC model the nesting argument needs n = 2.)
    This is the unbounded-register protocol whose 1-bit simulation realizes
    Theorem 1.4 end-to-end. *)

module Q := Bits.Rational

val protocol : rounds:int -> input:int -> (Q.t, Q.t) Proto.t
(** Estimates are exact rationals on the grid [m / 2^rounds]. *)

val denominator : rounds:int -> int
(** [2^rounds]. *)
