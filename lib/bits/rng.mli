(** Deterministic, seedable pseudo-random streams (splitmix64).

    Schedules drawn at random must be replayable from a seed so every
    experiment and every test failure is reproducible; the global [Random]
    state is never used by the library. *)

type t

val make : int -> t
(** [make seed] is a fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t
(** Independent clone that continues from the same point. *)

val split : t -> t
(** A statistically independent generator derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0..bound-1]. @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool
val float : t -> float
(** Uniform in [0, 1). *)

val bits53 : t -> int
(** The integer numerator of {!float}: uniform in [0 .. 2^53 - 1], from
    the same single stream step, returned unboxed. [float t] equals
    [float_of_int (bits53 t) /. 2. ** 53.] exactly (division by a power
    of two is exact), so a caller comparing [float t < p] can instead
    compare [float_of_int (bits53 t) < p *. 9007199254740992.] — same
    verdict on the same stream, with no boxed float allocated. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. @raise Invalid_argument on []. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
