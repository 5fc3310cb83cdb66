(** Lemma 2.1 (consensus is not 1-resilient solvable), demonstrated by
    exhaustive search over an entire protocol class.

    A {e candidate} is a symmetric two-process protocol with 1-bit registers
    and [rounds] alternating write/read rounds: in round [r] each process
    writes a bit determined by its state (its input plus everything it read
    so far) and then reads the other register; after the last round it
    decides 0 or 1 from its state. The class is finite — [64] candidates for
    one round, [16384] for two — and every one of them is run through the
    exhaustive scheduler with one crash allowed. The impossibility theorem
    predicts that {e every} candidate has a violating execution
    (disagreement, an invalid decision, or a blocked process), and the
    search confirms it; the witness execution is reported per candidate. *)

type candidate = {
  rounds : int;
  write_rules : int array;
      (** [write_rules.(r)] is a bitmask over round-[r] states: bit [s] is
          the bit written by a process in state [s] *)
  decide_rule : int;  (** bitmask over final states *)
}

val state_count : rounds:int -> int
(** Number of process states after [rounds] rounds: [2^(rounds+1)]. *)

val candidates : rounds:int -> candidate Seq.t
(** All candidates, lazily. *)

val program :
  candidate -> me:int -> input:int -> (int, int, int) Sched.Program.t

val verdict : candidate -> int Tasks.Harness.report
(** Exhaustive check (all inputs, all interleavings, up to one crash)
    against binary consensus. *)

type summary = {
  total : int;
  survivors : candidate list;  (** candidates the adversary failed to break *)
}

val search : rounds:int -> summary
(** Lemma 2.1 predicts [survivors = []]. *)
