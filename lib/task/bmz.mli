(** The Biran–Moran–Zaks machinery for two-process tasks (Section 5.2).

    A two-process task is given extensionally: a finite list of output
    configurations [O] and a membership predicate for Delta. Solvability
    (Lemma 5.7) asks for a subset [O'] of the outputs such that

    - {b connectivity}: for every input X, the graph [G(Delta(X) ∩ O')] —
      vertices are configurations, edges join configurations differing in at
      most one component — is non-empty and connected;
    - {b covering}: for every partial input [X^i] (process [i]'s input
      missing), some partial output [Y^i] (process [i]'s output missing)
      extends, for {e every} completion X of [X^i], to a configuration in
      [Delta(X) ∩ O'].

    From a witness [O'] this module builds the [delta] map and the family of
    paths [path(delta(X), delta(X^i))] that Algorithm 2 walks with
    epsilon-agreement. *)

type 'o config = 'o * 'o

type ('i, 'o) two_task = {
  name : string;
  inputs : 'i list;  (** per-process input domain *)
  legal_input : 'i * 'i -> bool;
  outputs : 'o config list;  (** the output complex O *)
  delta : 'i * 'i -> 'o config -> bool;
  equal_input : 'i -> 'i -> bool;
  equal_output : 'o -> 'o -> bool;
  pp_input : Format.formatter -> 'i -> unit;
  pp_output : Format.formatter -> 'o -> unit;
}

val adjacent : ('i, 'o) two_task -> 'o config -> 'o config -> bool
(** Configurations differing in at most one component (equality counts:
    padding duplicates a node, which the paper explicitly allows). *)

(** A solvability witness with everything Algorithm 2 needs precomputed. *)
type ('i, 'o) plan = private {
  task : ('i, 'o) two_task;
  sub : 'o config list;  (** the witness O' *)
  length : int;  (** common path length L (odd, >= 3) *)
  delta_full : 'i * 'i -> 'o config;  (** delta(X) *)
  delta_partial : missing:int -> 'i -> 'o config;
      (** [delta_partial ~missing x] is delta(X^missing) where [x] is the
          input of the surviving process [1 - missing]. *)
  path : 'i * 'i -> missing:int -> 'o config array;
      (** [path X ~missing] has [length + 1] entries [Y_0 .. Y_L];
          [Y_0 .. Y_{L-1}] all lie in Delta(X) ∩ O', consecutive entries are
          adjacent, and [Y_{L-1}], [Y_L] agree on the surviving process's
          component. *)
}

val check : ('i, 'o) two_task -> sub:'o config list -> (unit, string) result
(** Verify connectivity and covering of a candidate [O']. *)

val plan : ?sub:'o config list -> ('i, 'o) two_task -> (('i, 'o) plan, string) result
(** Build a plan from [sub] (default: all of [O]). When the default fails the
    task may still be solvable with a strict subset — callers supply one, or
    use {!plan_searching}. *)

val plan_searching : ('i, 'o) two_task -> (('i, 'o) plan, string) result
(** Lemma 5.7 is existential in O': try every subset of the outputs, largest
    first, until one satisfies connectivity and covering. Exponential in
    [|O|]; refuses tasks with more than 12 output configurations. The
    all-subsets sweep makes the {e rejection} verdict meaningful too: no
    witness exists at all. *)

val to_task : ('i, 'o) two_task -> ('i, 'o) Task.t
(** The same task as a generic arity-2 {!Task.t}; a partial output is legal
    iff it extends to a configuration of Delta(X). *)
