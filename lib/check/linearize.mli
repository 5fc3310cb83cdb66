(** Deciding linearizability of recorded register histories.

    The Section 6 simulation chain stands on the claim that ABD emulates
    {e atomic} registers; this module turns that claim into a machine
    decision. A campaign records every emulated read/write as an interval
    [[inv, res]] on a logical clock, and {!check} searches for a
    linearization: a total order of the operations that (a) respects
    real-time precedence ([res a < inv b] forces [a] before [b]), (b) keeps
    every process's operations in program order (guaranteed by precedence
    when the recorder stamps events from one monotone clock), and (c) is a
    legal sequential register history — every read returns the latest
    preceding write, or the initial value.

    The search is Wing–Gong style, specialised to registers: operations are
    scheduled one at a time, always choosing among the {e minimal} remaining
    operations (those no other remaining completed operation precedes in
    real time). Reads do not change the register, so a minimal read that
    matches the current value can always be taken greedily without losing
    completeness; backtracking is only ever over writes. Histories with [w]
    writes therefore cost O(w! · len) worst case but are near-linear in
    practice — campaigns use a handful of writes. The differential tests
    compare it with plain Wing–Gong backtracking, which lives in the
    test-only oracle library ([test/oracle]).

    Incomplete operations (crashed or starved mid-flight, [res = None]) may
    or may not have taken effect: pending writes are linearized optionally,
    pending reads are vacuous and dropped. *)

type 'v op =
  | Read of 'v  (** returned this value *)
  | Write of 'v

type 'v event = {
  proc : int;
  reg : int;  (** emulated register (histories are checked per register) *)
  op : 'v op;
  inv : int;  (** invocation time on the recorder's logical clock *)
  res : int option;  (** response time; [None] = never completed *)
}

type 'v verdict =
  | Linearizable of 'v event list
      (** a witness order, per-register sections concatenated *)
  | Nonlinearizable of { reg : int; reason : string }

val pp_event :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v event -> unit

val pp_verdict :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v verdict -> unit

val check :
  pp:(Format.formatter -> 'v -> unit) ->
  init:(int -> 'v) ->
  equal:('v -> 'v -> bool) ->
  'v event list ->
  'v verdict
(** Decide each register's part of the history, ascending by register.
    [init reg] is the register's value before any write; [pp] is only used
    to render the [reason] of a failure. The verdict depends only on the
    [inv]/[res] stamps; the witness, and on ties the reason, follow input
    order (candidates are tried in it, and the reason cites the
    earliest-invoked stuck read, the first of equals). *)
