(** The iterated models' shared program shape and round engine.

    A program decides, or writes one value into the current round's memory
    and continues on the view it gets back. Every model here runs rounds
    the same way: each scheduled participant writes its register of the
    fresh memory [M_r], then each reads back the registers its round
    {e shape} says it sees. The models differ only in which shapes exist:
    {!Iis} rounds are ordered partitions (each block sees every block up to
    its own, an immediate snapshot), {!Ic} rounds are realizable sees
    matrices (a collect). [Make] turns a shape into the engine. *)

type ('v, 'a) t =
  | Decide of 'a
  | Round of 'v * ('v Views.vector -> ('v, 'a) t)
      (** write the value into this round's memory, continue on the view *)

(** A model's round schedules. *)
module type SHAPE = sig
  type plan
  (** One round's schedule. *)

  val survivors : plan -> int list
  (** The pids that take the round, in write order. Participants left out
      crash before writing, and take no step ever again. *)

  val sees : n:int -> plan -> bool array array
  (** [sees.(i).(j)]: survivor [i]'s view holds [j]'s write. An [n x n]
      matrix; only the survivors' rows are read. Called once per round,
      after the survivors are validated and before any state changes.
      @raise Invalid_argument on a plan no schedule of the model can
      produce. *)

  val all : n:int -> int list -> plan list
  (** Every crash-free plan for a participant set, in enumeration order. *)
end

(** The engine over one round shape. *)
module type ENGINE = sig
  type plan

  type ('v, 'a) program = ('v, 'a) t =
    | Decide of 'a
    | Round of 'v * ('v Views.vector -> ('v, 'a) program)

  type 'a outcome = {
    decisions : 'a option array;
    rounds_taken : int array;  (** per-process rounds executed *)
    max_bits : int;  (** widest value written to any [M_r[i]] *)
    history : plan list;  (** the plan of each executed round *)
  }

  val run :
    n:int ->
    budget:Bits.Width.budget ->
    measure:'v Bits.Width.measure ->
    programs:(int -> ('v, 'a) program) ->
    schedule:(round:int -> participants:int list -> plan) ->
    ?max_rounds:int ->
    unit ->
    'a outcome
  (** Rounds execute until no participant is left (everyone decided or
      crashed) or [max_rounds] (default 10_000) pass. [schedule] gets the
      round number (from 1) and the pids still running, ascending. Writes
      are checked against [budget]: each [M_r[i]] is a separate register,
      so a 1-bit budget means one bit per process per round.
      @raise Bits.Width.Overflow when a write exceeds [budget].
      @raise Invalid_argument when a plan's survivors name a pid out of
      range, one that is not a current participant (crashed or decided),
      or one pid twice, or when the shape's [sees] rejects the plan; the
      round is then not executed. *)

  val run_random :
    n:int ->
    budget:Bits.Width.budget ->
    measure:'v Bits.Width.measure ->
    programs:(int -> ('v, 'a) program) ->
    rng:Bits.Rng.t ->
    ?crash_probability:float ->
    ?max_rounds:int ->
    unit ->
    'a outcome
  (** Each round each participant crashes with [crash_probability]
      (default 0), leaving at least the lowest pid alive; then a uniform
      pick among [all] plans for the survivors. *)

  val enumerate :
    n:int ->
    budget:Bits.Width.budget ->
    measure:'v Bits.Width.measure ->
    programs:(int -> ('v, 'a) program) ->
    max_rounds:int ->
    ('a outcome -> unit) ->
    unit
  (** Every crash-free execution: each round forks over [all] plans until
      everyone decides, or [max_rounds] is hit, in which case the outcome
      has undecided processes (the visitor sees it and can fail a test). *)
end

module Make (S : SHAPE) : ENGINE with type plan = S.plan
