(** Programmable adversarial schedulers.

    The t-resilient model quantifies over {e all} schedules; random and
    exhaustive scheduling cover breadth, but worst cases for a given
    protocol are usually reached by a {e strategy}. An adversary observes
    only what the model lets a scheduler observe — which processes are
    running and how many steps each has taken, never register contents or
    local states (schedulers are oblivious to data in the asynchronous
    model) — and picks the next process to step. *)

type view = {
  step : int;  (** steps taken so far in the whole execution *)
  running : int list;
  steps_of : int -> int;  (** per-process step counts *)
}

type t = view -> int
(** Next process to step; must be one of [view.running]. *)

val run :
  ?max_steps:int -> ?until_outputs:bool -> t ->
  ('v, 'i, 'a) Scheduler.state -> unit
(** Drive the state with the adversary until everything halts (or, with
    [until_outputs], until every live process has decided), or the budget
    (default 1_000_000) runs out.
    @raise Invalid_argument if the adversary picks a non-running process. *)

val lockstep : t
(** Always step a least-advanced running process (ties to the smallest id):
    strict alternation while everyone runs — keeps Algorithm 1's two
    processes synchronized for the full 2k+3 steps. *)
