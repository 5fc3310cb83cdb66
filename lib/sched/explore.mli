(** Exhaustive enumeration of schedules — the model-checking side of the
    simulator.

    Impossibility arguments in the paper quantify over {e all} executions;
    for small systems (2–3 processes, short protocols) we can visit all of
    them. The engine walks a single scheduler state depth-first, each
    edge a {!Scheduler.branch} that undoes its step when the subtree
    below returns instead of copying the state per branch, merges
    interleavings that converge to the same canonical state, and prunes
    redundant orderings of commuting operations (sleep-set partial-order
    reduction). Together these preserve the set of reachable {e final}
    states — every distinct terminal state is still visited exactly once —
    while the number of explored nodes collapses from the full
    [C(2L, L) ~ 4^L] interleaving tree. {!explore} is the one entry
    point; the reference walker the differential tests compare it with
    (one visit per schedule, forking by replay) lives in the test-only
    oracle library ([test/oracle]). See DESIGN.md "Exploration engine"
    for the soundness argument. *)

type stats = {
  nodes : int;  (** DFS nodes expanded (including terminals) *)
  terminals : int;  (** complete executions handed to the visitor *)
  deduped : int;  (** subtree re-entries skipped by the visited set *)
  pruned : int;  (** step branches skipped by sleep-set POR *)
  truncated : int;  (** paths abandoned at the step budget *)
  peak_depth : int;  (** deepest path, in memory steps *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One line: [nodes=… terminals=… deduped=… pruned=… truncated=…
    peak_depth=…] — the same keys as the [explore.*] metrics and the
    bench JSON, so every surface reports identical names. *)

val publish_stats : stats -> unit
(** Fold one run's tallies into the [explore.*] metrics registry (and
    count one run). [explore] does this itself unless [quiet]; the
    parallel driver publishes its merged totals through here so a
    partitioned run still registers as a single exploration. *)

type outcome =
  | Complete  (** every reachable terminal state was visited *)
  | Exhausted of exhausted
      (** a {!Budget} cap tripped first; the unvisited subtrees are on the
          frontier *)

and exhausted = {
  frontier : Budget.frontier;
      (** the root-to-subtree choice path of every part of the state space
          the budgeted run did not enter — serializable
          ({!Budget.frontier_to_string}) and resumable ([explore ~resume]) *)
  reason : Budget.stop_reason;
}

type result = { stats : stats; outcome : outcome }

val explore :
  ?max_steps:int ->
  ?max_crashes:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?budget:Budget.t ->
  ?resume:Budget.frontier ->
  ?clock:(unit -> float) ->
  ?quiet:bool ->
  ?on_truncated:(('v, 'i, 'a) Scheduler.state -> unit) ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  (('v, 'i, 'a) Scheduler.state -> unit) ->
  result
(** The engine. Visits every reachable terminal state (all processes decided
    or crashed) of every interleaving of the running processes, branching on
    crashing any running process before any step while fewer than
    [max_crashes] (default 0) have crashed. Crash branches are canonical:
    between two steps, crash pids only increase — the crash {e set} is what
    matters, not its order. [dedup] (default true) keys a visited set on the
    per-process observation histories; [por] (default true) enables
    sleep-set commutativity pruning. With both off the engine expands
    exactly the full schedule tree (one terminal visit per schedule).
    Paths exceeding [max_steps] (default 10_000) memory steps are abandoned
    after calling [on_truncated] (default: nothing) — the guard against
    non-wait-free protocols.

    [budget] (default {!Budget.unlimited}) bounds the whole exploration:
    when its deadline or node cap trips, no further subtree is entered
    and the result's outcome is [Exhausted] with the frontier of
    abandoned subtrees. [resume] (a frontier from an earlier [Exhausted]
    result over the {e same} [init]) explores exactly the abandoned
    subtrees: chaining budgeted calls until [Complete] visits every
    terminal state a single unbudgeted call would have, and with
    [dedup]/[por] off the terminal counts partition exactly. Before
    exploring anything, resume replays every path and checks that each
    choice names a running process; otherwise it raises
    [Invalid_argument "resume path L, choice C: …"] (both counted from
    1, L being the path's position in [resume]), after closing the span
    like any escaping exception. [clock] (default: the shared {!Budget.now})
    is the deadline's time source, overridable for deterministic tests —
    the shared default means concurrent explorations judge the same
    deadline. [quiet] (default false) marks the call as an internal
    segment of a larger run: no span, no budget-trip instant, no registry
    publication — {!Par.explore} uses it for seed passes and per-unit
    worker calls and reports the merged whole once.

    The visitor receives the engine's single shared state; it may read
    anything ({!Scheduler.decisions}, {!Scheduler.trace}, memory contents,
    step counts — all reflect exactly the current path) but must not step,
    crash or branch it, and must not retain it after returning.
    @raise Invalid_argument when the walk would step a process running
    {!Program.Stateful} code. *)
