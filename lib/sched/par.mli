(** Domain-parallel exploration: frontier-partitioned fan-out of
    {!Explore.explore} over a pool of OCaml 5 domains.

    A budgeted sequential {e seed} pass grows a {!Budget.frontier} of
    disjoint subtree prefixes, the prefixes fan out to a worker pool
    (one atomic work-queue index; each unit rebuilds a private scheduler
    state from its own [init ()] call and replays its prefix
    via [explore ~resume]), and per-unit results merge in unit-index
    order. Three guarantees, tested in [test/test_sched.ml]:

    - {b same terminal-state set}: frontier prefixes are disjoint and,
      together with the seed pass, cover the whole tree; fresh per-worker
      dedup/sleep sets only ever make a unit explore {e more} below its
      root, never less.
    - {b race-free telemetry}: metrics cells are atomic, and each unit's
      trace events are captured privately on the executing domain
      ({!Obs.Span.captured}) and drained into the trace on the main
      domain in unit-index order after the join — worker spans and
      instants appear in traces, yet the published stream stays a single
      main-domain stream.
    - {b deterministic output}: stats, visitor values and leftover
      frontiers reduce in unit-index order (in {!run_units}'s [k]) —
      fixed workload and seed give byte-identical merged results
      regardless of worker scheduling.

    With [dedup] on, a canonical state reachable under several prefixes
    may be visited by more than one worker (the sequential run would have
    deduped the later arrivals): the visitor can run more than once per
    terminal {e state}, [deduped] may drop, and [terminals] may exceed
    the sequential count. Set-style [merge]s absorb this. With [dedup]
    and [por] off, counts partition exactly: parallel [stats] equals the
    sequential record field-for-field. *)

type 'r result = {
  stats : Explore.stats;  (** seed segments + all units, {!Explore.add_stats}ed *)
  outcome : Explore.outcome;
      (** [Complete], or [Exhausted] with every subtree no unit finished *)
  value : 'r;  (** seed value merged with per-unit values, in unit order *)
  jobs : int;  (** pool width actually used (after clamping) *)
  units : int;  (** parallel work units dispatched (0 = never went parallel) *)
}

val run_units :
  jobs:int -> units:'a array -> ('a -> 'b) -> (int -> 'b -> unit) -> unit
(** [run_units ~jobs ~units f k] calls [k i (f units.(i))] for every
    unit, [k] always on the calling domain and in unit-index order.
    [jobs] is clamped to [1 .. min (Array.length units) 64]; the
    calling domain participates, so [jobs - 1] domains are spawned.

    At [jobs = 1] (or a single unit) this is a plain loop: [f] then [k]
    for each unit, with no capture. If [f] or [k] raises, no later unit
    runs.

    At [jobs > 1] the [f] calls run on the pool, claimed in index order
    from one atomic counter, and the [k] calls follow the join. When the
    caller is tracing ({!Obs.Sink.enabled} at entry), each unit runs
    under {!Obs.Span.captured} on the executing domain and its events
    are replayed into the trace ({!Obs.Span.replay}) just before its [k];
    otherwise units run bare, and no domain emits.
    If an [f] raises, the pool stops claiming units and in-flight ones
    finish; [k] then runs for every unit below the lowest-index failure,
    whose exception is re-raised with its backtrace. Since [k] sees
    exactly the units the jobs = 1 loop would have reached, with the
    same events before each, the outcome and the trace do not depend on
    [jobs]. Worker domains fold their flight-recorder rings into the
    graveyard as they exit ({!Obs.Recorder.retire}).

    [f] must be domain-safe when [jobs > 1]: it runs off the main domain
    and concurrently with itself on other units. *)

val explore :
  ?max_steps:int ->
  ?max_crashes:int ->
  ?dedup:bool ->
  ?por:bool ->
  ?budget:Budget.t ->
  ?resume:Budget.frontier ->
  ?clock:(unit -> float) ->
  ?jobs:int ->
  ?seed_nodes:int ->
  init:(unit -> ('v, 'i, 'a) Scheduler.state) ->
  fold:(('v, 'i, 'a) Scheduler.state -> 'r -> 'r) ->
  merge:('r -> 'r -> 'r) ->
  'r ->
  'r result
(** [explore ~jobs ~init ~fold ~merge zero] visits the same terminal
    states as [Explore.explore] with the same engine arguments, folding
    each visited terminal into a per-unit accumulator ([fold state acc],
    starting from [zero]) and combining accumulators with [merge] in
    deterministic unit-index order (seed value first).

    [jobs] (default 1) is the pool width; 1 is exactly the sequential
    engine — same spans, same metrics, one [Explore.explore] call. For
    [jobs > 1], a seed pass of node-capped segments (each [seed_nodes]
    nodes, default 512) runs on the calling domain until the frontier
    holds at least [4 * jobs] prefixes (a few units per worker even out
    skewed subtree sizes), then the pool drains the frontier. Trees smaller than the seed budget complete
    sequentially ([units = 0]).

    [fold] and [init] must be domain-safe: units run concurrently, each
    with its own [init ()] state and its own accumulator. In particular,
    an [init] built on {!Scheduler.start} compiles the programs afresh
    inside each unit — compiled code is mutable and single-domain, so
    [init] must never close over a shared {!Program.Compiled.code} (use
    {!Scheduler.start_compiled} only for sequential reuse). [fold] gets
    the engine's usual shared-state view (read, don't step/retain).
    [merge] needs no commutativity — the reduction order is fixed — but
    [zero] should be its identity, since every unit starts from [zero].

    [budget] caps the whole parallel run. Units run under the node cap
    the seed pass left and are admitted in unit-index order until the
    cap is reached (it can overshoot by one unit's run), so a capped
    run's output does not depend on worker scheduling. Deadlines read
    the shared {!Budget.now}. Unfinished and unadmitted subtrees come
    back on the merged [Exhausted] frontier, resumable like any other
    checkpoint. The first seed segment resumes the whole of [resume], so
    a bad checkpoint choice is refused before any unit runs, with the
    same [resume path L, choice C] position at every [jobs]. *)
