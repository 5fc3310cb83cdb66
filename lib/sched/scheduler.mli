(** Executing [n] protocol programs against a shared memory, one atomic step
    at a time.

    A {!state} holds the memory, each process's suspended program, and each
    process's status. The primitive is {!step}: perform the next atomic
    operation of one chosen process. Everything else — round-robin runs,
    seeded random fair schedules, crash injection, replay — is built from it.
    Exhaustive interleaving enumeration lives in {!module:Explore}. *)

type 'a status =
  | Running
  | Decided of 'a
  | Crashed

type ('v, 'i, 'a) state

val start :
  ?record_trace:bool ->
  memory:('v, 'i) Memory.t ->
  programs:(int -> ('v, 'i, 'a) Program.t) ->
  unit ->
  ('v, 'i, 'a) state
(** One program per process id [0..n-1] where [n = Memory.n memory]. A
    program that decides without taking any memory step is immediately
    [Decided]. Traces are off by default (they cost allocation per step).
    Programs are lowered to their step-compiled form
    ({!Program.Compiled}) on entry; execution never re-interprets the
    free monad. *)

val start_compiled :
  ?record_trace:bool ->
  memory:('v, 'i) Memory.t ->
  programs:(int -> ('v, 'i, 'a) Program.Compiled.code) ->
  unit ->
  ('v, 'i, 'a) state
(** Like {!start} but reusing already-compiled programs, so repeated runs
    of the same protocol (harness sampling, benchmarks) skip re-lowering
    and share the positions memoized by earlier runs. Compiled code is
    mutable: states sharing it must stay within one domain.
    @raise Invalid_argument when a {!Program.Stateful} code has already
    been started: it runs forward once ({!Program.Compiled.claim}). *)

val memory : ('v, 'i, 'a) state -> ('v, 'i) Memory.t
val n : ('v, 'i, 'a) state -> int

val step : ('v, 'i, 'a) state -> int -> unit
(** Execute one atomic operation of process [pid].
    @raise Invalid_argument if the process is not [Running]. *)

val crash : ('v, 'i, 'a) state -> int -> unit
(** Process takes no further steps, ever.
    @raise Invalid_argument if the process is not [Running]. *)

(** {1 Undo journal}

    Backtracking support for {!module:Explore}: with the journal enabled,
    every {!step} and {!crash} records what it overwrote, and {!undo_to}
    rewinds the state to an earlier {!journal_mark} in O(steps undone) —
    no copying of the memory or the per-process arrays. *)

type journal_mark

val enable_journal : ('v, 'i, 'a) state -> unit
(** Start journaling. Off by default ([step] stays allocation-free for plain
    runs). Steps taken before enabling cannot be undone. So
    {!module:Explore}, which journals every state it walks, rejects
    stateful programs through this call.
    @raise Invalid_argument when a process runs {!Program.Stateful} code. *)

val journal_mark : ('v, 'i, 'a) state -> journal_mark
(** The current rewind point. *)

val undo_to : ('v, 'i, 'a) state -> journal_mark -> unit
(** Rewind to a previously obtained mark, reverting programs, statuses,
    outputs, step counters, memory contents and memory statistics, and the
    recorded trace. Marks must be used LIFO.
    @raise Invalid_argument if the mark is ahead of the journal. *)

(** {1 Fused raw exploration} *)

val raw_dfs :
  ('v, 'i, 'a) state ->
  depth:int ->
  max_depth:int ->
  visit:(('v, 'i, 'a) state -> int -> unit) ->
  on_truncated:(('v, 'i, 'a) state -> unit) ->
  int * int * int * int
(** Depth-first walk of every schedule of the running processes from the
    current state, visiting each terminal state ([visit state depth]) and
    restoring the state exactly on return. Equivalent to the explorer's
    raw mode (no dedup, no partial-order reduction, no crashes) driven
    through {!step}/{!undo_to}, but each edge's undo data lives in the
    recursion frame instead of the journal, so an edge costs no journal
    traffic at all. Nodes at [depth >= max_depth] that are not terminal
    are not expanded: [on_truncated state] fires instead. Returns
    [(nodes, terminals, truncated, peak_depth)], counted as the explorer
    counts them ([depth] is the starting node's depth).

    Any enclosing journal is suspended during the walk and intact after
    it; marks taken before the call remain valid.
    @raise Invalid_argument on a [record_trace] state — the per-step
    trace would have to be journaled, which this walk avoids; callers
    gate on {!recording_trace} — and when a process runs
    {!Program.Stateful} code. *)

val recording_trace : ('v, 'i, 'a) state -> bool
(** Whether the state was started with [~record_trace:true]. *)

(** {1 Inspection} *)

type op_view =
  | Op_write  (** next op writes the process's own register *)
  | Op_read of int  (** next op reads register [j] *)
  | Op_write_input  (** next op writes the process's input register *)
  | Op_read_input of int  (** next op reads input register [j] *)
  | Op_halted

val peek : ('v, 'i, 'a) state -> int -> op_view
(** The next atomic operation process [pid] would perform — what {!step}
    is about to do, without doing it. Explorers use this for commutativity
    analysis (two reads commute; a read and a write conflict iff they touch
    the same register). *)

val status : ('v, 'i, 'a) state -> int -> 'a status
val running : ('v, 'i, 'a) state -> int list
(** Running process ids, ascending. Allocates; prefer {!iter_running} in hot
    loops. *)

val iter_running : ('v, 'i, 'a) state -> (int -> unit) -> unit
(** [f] applied to each running pid in ascending order, allocation-free.
    Statuses are consulted live: a process halted by an earlier callback in
    the same sweep is skipped. *)

val running_count : ('v, 'i, 'a) state -> int
(** Number of running processes, allocation-free. *)

val running_mask : ('v, 'i, 'a) state -> int
(** Bitmask of running pids (bit [pid] set iff running), allocation-free —
    the explorer's per-node enabled set. Requires [n <= Sys.int_size]. *)

val all_halted : ('v, 'i, 'a) state -> bool

val all_output : ('v, 'i, 'a) state -> bool
(** Every non-crashed process has announced a decision — through [Return] or
    the decide-and-continue [Output]. *)

val decisions : ('v, 'i, 'a) state -> 'a option array
(** Announced decisions ([Return] or [Output]); [None] for processes that
    have not decided (crashed or still working). *)

val decided_values : ('v, 'i, 'a) state -> 'a list
val crashed : ('v, 'i, 'a) state -> int list
val steps_taken : ('v, 'i, 'a) state -> int
val steps_of : ('v, 'i, 'a) state -> int -> int
val trace : ('v, 'i, 'a) state -> 'v Trace.event list
(** Oldest first; empty unless [record_trace] was set. *)

val copy : ('v, 'i, 'a) state -> ('v, 'i, 'a) state
(** Independent copy (memory deep-copied). Programs must be pure between
    steps — all per-process state in the continuation — for the copy to be a
    true fork; every protocol in this repository is, except the Theorem 1.3
    pipeline, which says so with {!Program.Stateful}. The copy shares the
    original's compiled code (an append-only memo, identical for every
    fork), so both must stay within one domain. The copy starts with an
    empty undo journal: it cannot be rewound past the copy point.
    @raise Invalid_argument when a process runs {!Program.Stateful} code. *)

(** {1 Drivers} *)

val run_schedule : ('v, 'i, 'a) state -> int list -> unit
(** Step the given pids in order. Entries for processes that have already
    halted are skipped, so a schedule can be written without tracking exact
    program lengths. *)

val run_round_robin : ?max_steps:int -> ('v, 'i, 'a) state -> unit
(** Cycle over running processes in id order until all halt or [max_steps]
    (default 1_000_000) memory steps have been taken. *)

val run_random :
  ?max_steps:int ->
  ?crashes:(int * int) list ->
  ?until_outputs:bool ->
  Bits.Rng.t ->
  ('v, 'i, 'a) state ->
  unit
(** Fair random schedule: each step picks uniformly among running processes.
    [crashes] is a list of [(pid, after_steps)]: the process crashes once it
    has taken [after_steps] steps (0 = crashes before taking any step).
    [until_outputs] (default false) stops as soon as {!all_output} holds —
    the termination condition for never-halting simulation protocols that
    decide via [Output]. Random schedules are fair with probability 1, so
    with [max_steps] large enough every wait-free protocol run completes. *)

val run_solo : ?max_steps:int -> ('v, 'i, 'a) state -> int -> unit
(** Run only process [pid] until it halts: the paper's solo execution, all
    other processes crashed at the start. *)
