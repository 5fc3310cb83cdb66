(** Running an algorithm against a task specification over many schedules and
    crash patterns, and checking every outcome against Delta.

    This is the workhorse behind most experiments: positive theorems are
    demonstrated by surviving the harness (exhaustive schedules where
    feasible, seeded random fair schedules with crash injection otherwise);
    the Section 4 impossibility is demonstrated by the harness {e finding}
    violations for protocols the theorem rules out. *)

type ('v, 'i, 'o) algorithm = {
  name : string;
  memory : unit -> ('v, 'i) Sched.Memory.t;
  program : pid:int -> input:'i -> ('v, 'i, 'o) Sched.Program.t;
}
(** [memory] builds a fresh shared memory (fixing n and the register budget);
    [program] is the per-process protocol, given the process's private
    input. *)

type 'i violation = {
  inputs : 'i array;
  crashes : (int * int) list;  (** (pid, crashed after this many steps) *)
  seed : int option;  (** random-run seed, when applicable *)
  schedule : int list option;
      (** the concrete failing interleaving — pids in step order. Always
          present for exhaustive failures (recovered from the explorer's
          trace, crashes included); present for random failures up to a
          2M-step cap (re-derived by replaying the seed with tracing on).
          Feed it back through
          [run_once ~inputs ~schedule:(`Replay (pids, crashes))] to
          re-execute the failure bit-for-bit: the returned state exhibits
          the reported failure, with the same decisions and step
          counts. *)
  reason : string;
}

val pp_violation :
  (Format.formatter -> 'i -> unit) -> Format.formatter -> 'i violation -> unit

type stats = {
  runs : int;
  max_process_steps : int;  (** worst per-process step count observed *)
  max_bits : int;  (** widest register value ever written *)
  explored : Sched.Explore.stats option;
      (** exploration-engine counters, summed over input configurations —
          [Some] for {!check_exhaustive}, [None] for {!check_random} *)
}

type 'i report = Pass of stats | Fail of 'i violation

val pp_report :
  (Format.formatter -> 'i -> unit) -> Format.formatter -> 'i report -> unit

val run_once :
  ?record_trace:bool ->
  ('v, 'i, 'o) algorithm -> inputs:'i array ->
  schedule:
    [ `Random of Bits.Rng.t * (int * int) list
    | `List of int list
    | `Replay of int list * (int * int) list ] ->
  ?max_steps:int -> unit -> ('v, 'i, 'o) Sched.Scheduler.state
(** One execution. With [`Random (rng, crashes)] the run uses a fair random
    schedule with the given crash points; with [`List pids] it replays the
    given schedule (no crashes, remaining processes finished round-robin);
    with [`Replay (pids, crashes)] it re-executes a recorded failure
    bit-for-bit — exactly the listed steps, crash placements applied, no
    round-robin tail. *)

val check_random :
  task:('i, 'o) Task.t ->
  algorithm:('v, 'i, 'o) algorithm ->
  ?resilience:int ->
  ?max_steps:int ->
  ?budget:Sched.Budget.t ->
  runs:int ->
  seed:int ->
  unit ->
  'i report
(** [runs] executions with uniformly drawn admissible inputs, a fair random
    schedule, and a uniformly drawn crash pattern of at most [resilience]
    processes (default: arity - 1, i.e. wait-free) crashing at random times.
    Fails if a surviving process does not decide within [max_steps] (default
    100_000) total steps, or if the decided outputs violate Delta.

    Only [budget]'s deadline applies (default none; a random run has no
    search nodes). Each run is driven in slices of 50,000 steps with the
    same rng stream as one uninterrupted run, and the deadline is read
    between slices: a run still going when it passes is abandoned
    unjudged, and the result is [Pass] over the runs completed before it
    — [runs] in the stats is then below the requested count. *)

(** {1 Supervised checking}

    {!check_exhaustive} is all-or-nothing: it either finishes or it does
    not come back. Under a {!Sched.Budget.t} the harness degrades
    gracefully instead — when the exhaustive pass is cut short, the
    abandoned frontier is {e sampled} with seeded random completions, and
    the verdict says exactly how much of the state space backs the claim. *)

type coverage = {
  explored : int;  (** terminal states visited by the exhaustive pass *)
  frontier : int;  (** subtrees abandoned when the budget tripped *)
  sampled : int;  (** frontier subtrees finished under a random schedule *)
  sample_seed : int;  (** rng seed of the sampling pass *)
  stop : Sched.Budget.stop_reason;
      (** which budget cap ended the exhaustive pass *)
}

val pp_coverage : Format.formatter -> coverage -> unit

type 'i verdict =
  | Verified_exhaustive of stats
      (** every interleaving was checked; this is a proof over the model *)
  | Verified_sampled of stats * coverage
      (** no violation found, but the search was cut short — the coverage
          says how much was exhaustive and how much merely sampled *)
  | Violation of 'i violation
      (** a counterexample, with its replayable schedule *)

val pp_verdict :
  (Format.formatter -> 'i -> unit) -> Format.formatter -> 'i verdict -> unit

val verdict_ok : 'i verdict -> bool
(** [true] unless the verdict is a {!Violation}. *)

val report_of_verdict : 'i verdict -> 'i report
(** Collapse to the two-valued report: both [Verified_*] become [Pass].
    Lossy — the coverage disclaimer is dropped. *)

val check_supervised :
  task:('i, 'o) Task.t ->
  algorithm:('v, 'i, 'o) algorithm ->
  ?max_crashes:int ->
  ?max_steps:int ->
  ?budget:Sched.Budget.t ->
  ?seed:int ->
  ?jobs:int ->
  unit ->
  'i verdict
(** {!check_exhaustive} under a resource [budget] (default
    {!Sched.Budget.unlimited}) shared across all input configurations:
    each configuration's exploration gets what the previous ones left
    over ({!Sched.Budget.remaining}). When the budget trips, up to 64
    abandoned frontier subtrees are completed under a fair random
    schedule seeded with [seed] (default 1) and judged like any other
    execution — a violation found while sampling is still a [Violation],
    an undecided sample included; surviving yields [Verified_sampled]
    with the coverage counters. An interleaving exceeding [max_steps] is
    a non-termination violation, exactly as in {!check_exhaustive}.

    [jobs] (default 1) fans the frontier sampling over a domain pool
    ({!Sched.Par.run_units}): samples are independent completions, each
    with an rng derived from [seed] and its global sample index, and
    outcomes fold back in sample order on the calling domain. The
    verdict — stats, coverage counters, and a violation's schedule and
    crashes — is therefore the same at every width, [jobs = 1]
    included. The exhaustive pass itself is not parallelized (its budget
    accounting is what partitions the frontier in the first place). *)

val check_exhaustive :
  task:('i, 'o) Task.t ->
  algorithm:('v, 'i, 'o) algorithm ->
  ?max_crashes:int ->
  ?max_steps:int ->
  unit ->
  'i report
(** Every admissible input configuration crossed with every interleaving
    (and, when [max_crashes > 0], every crash placement up to that budget).
    Interleavings longer than [max_steps] (default 10_000) are reported as a
    termination failure rather than skipped. Equivalent to
    {!check_supervised} with an unlimited budget, collapsed through
    {!report_of_verdict}. *)
