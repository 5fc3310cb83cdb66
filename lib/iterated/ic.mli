(** The iterated collect (IC) model: the {!Proto} engine over realizable
    sees matrices. Per round each process writes its register of [M_r] and
    then reads the [n] registers one by one in an arbitrary order.

    A round's outcome is fully described by its {e sees matrix}:
    [sees.(i).(j)] tells whether [i]'s read of [j]'s register returned the
    written value. A matrix is realizable by some interleaving iff it is
    reflexive on participants (a process finds its own write) and its
    {e misses} relation — [i] missed [j] — is acyclic: [i] missing [j] means
    [i]'s read of [j] preceded [j]'s write, which itself precedes all of
    [j]'s reads, so the misses order embeds in the write order. The test
    suite re-derives the same set by brute-force scheduling. *)

val all_matrices : n:int -> participants:int list -> bool array array list
(** Every realizable sees matrix for one round ([n x n]; rows and columns of
    non-participants are all-false). 3 matrices for two participants, 25 for
    three. *)

type round_plan = {
  survivors : int list;  (** participants that execute this round *)
  sees : bool array array;
}
(** Participants not in [survivors] crash before writing this round.
    [all] plans keep every participant, one per realizable matrix. [run]
    rejects ([Invalid_argument]) a plan whose matrix is not [n x n], has
    a survivor miss its own write, or has cyclic misses among the
    survivors: no interleaving produces it. *)

include Proto.ENGINE with type plan := round_plan
