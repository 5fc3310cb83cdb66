(** A two-process 1-bit labelling protocol for the IS model (the Lemma 8.1
    ingredient of Theorem 8.1), re-derived — the paper cites [14] without
    reproducing the construction.

    {b Protocol.} In every round each process writes the {e parity of the
    number of its own solo rounds so far}; its label is its sequence of
    observations (the other's bit, or bottom when solo). This is as good as
    full information: the other's parity can only change in rounds the
    observer sees (at most one process is solo per IS round), so the
    observation sequence reconstructs the whole execution except for the
    familiar last-observation ambiguity — exactly the information a
    full-information protocol has. Hence the labels after [r] rounds are in
    bijection with the [3^r + 1] vertices of the chromatic-path protocol
    complex (verified exhaustively in the tests for r <= 7).

    {b Value map.} [value] assigns each label its position along the path,
    normalized to [0, 1]: the reflected-ternary position of the execution's
    edge, taking the endpoint colored by the label's process. It is computed
    in closed form (no enumeration), is invariant under extending the
    execution by solo rounds — which is what lets the Algorithm 6 simulation
    cut a process off after [Delta] consecutive solo rounds — and assigns 0
    and 1 to the two all-solo labels. Co-final labels get values exactly
    [1/3^r] apart. *)

type label = {
  me : int;  (** 0 or 1 *)
  obs : int option list;
      (** per round, oldest first: the other process's bit, or [None] when
          this process was solo *)
}

val equal : label -> label -> bool
val pp : Format.formatter -> label -> unit

val protocol : rounds:int -> me:int -> (int, label) Iterated.Proto.t
(** The labelling protocol as a genuine IS program writing one bit per
    round — used to validate the construction against the real IIS model. *)

val bit : solo_parity:int -> int
(** What the protocol writes given the current solo-count parity (identity,
    exposed for the Algorithm 6 simulation which drives rounds itself). *)

type outcome = Me_solo | Other_solo | Both

val reconstruct : label -> outcome list
(** The execution as seen from the label, oldest first; the ambiguous last
    observation resolved to [Both] (the value map does not depend on the
    choice). *)

val value : label -> Bits.Rational.t
(** The path position, a multiple of [1/3^r] for a label of [r]
    rounds. *)
