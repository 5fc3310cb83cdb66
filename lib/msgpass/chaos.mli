(** Chaos campaigns: ABD register emulations under injected faults, with
    machine-checked atomicity verdicts and shrunk counterexamples.

    One run drives an [n]-process {!Net} of ABD peers ({!Abd}), gives
    process 0 a script of writes to register 0 and processes [1..readers] a
    script of sequential reads, drives deliveries through a {!Faults} layer,
    and records every operation's invocation/response on a logical clock.
    The recorded history is handed to {!Check.Linearize}: a sound quorum
    ([n - t], [t < n/2]) must yield [Linearizable] under any plan — crash,
    drop, duplication, reordering, delay — while the [t = n/2] frontier
    (disjoint quorums, the Section 9 open problem staged by E13) admits
    runs whose completed write vanishes from a later read:
    [Nonlinearizable], found by seed search rather than eyeballing.

    A failing random run is then {e shrunk}: {!Check.Shrink.minimize_count}
    deletes fault-plan actions while replaying keeps the verdict,
    converging on a 1-minimal plan — for the frontier configuration,
    around 17 delivery events: one write-request delivery, one read served
    by fresh copies, one read served by stale ones.

    With [membership] set, the fleet is dynamic instead: {!Dynreg} peers
    over a churning membership, with an α-bounded schedule of
    enter/leave events rolled per run (the ACEKW adversary) and quorums
    sized against gossiped views widened by [churn_slack]. The same
    checker, shrinker and replay machinery applies — churn events are
    ordinary plan actions.

    Neither fleet is rebuilt per run: each domain pools its instances
    (network, peers, recorder) by the config fields they read, and
    rewinds one before every run. Outcomes, traces and metric counters
    are the same on a warm domain as on a new one. *)

type dyn = {
  seed_members : int;  (** slots [0..seed_members-1] present at start *)
  churn_rate : int;  (** α: max churn events per window; [0] = no churn *)
  churn_window : int;  (** window length, in fault events *)
  churn_slack : int;
      (** quorum widening handed to {!Dynreg.create} — sound when at
          least the churn rate *)
  width_bits : int option;  (** timestamp width; [None] = unbounded *)
  joiner_reads : int;  (** reads each joiner runs after activating *)
}

type config = {
  n : int;
  t : int;  (** resilience parameter handed to {!Abd.create} *)
  quorum : int option;  (** override; [None] = the sound [n - t] *)
  writes : int;  (** writer ops: values [1..writes] to register 0 *)
  readers : int;  (** processes [1..readers] run read scripts *)
  reads : int;  (** sequential reads per reader *)
  crashes : int;  (** up to this many seeded random crash injections *)
  profile : Faults.profile;
  max_events : int;
  membership : dyn option;
      (** [None]: the static ABD fleet. [Some]: the dynamic {!Dynreg}
          fleet ([t] and [quorum] are then unused — quorums come from
          views). *)
}

val sound : ?n:int -> ?t:int -> unit -> config
(** Default [n = 4], [t = 1]: quorum [n - t] with crash, drop, duplication,
    reorder and delay faults (drops capped per channel so operations keep
    completing; safety never depends on the cap). *)

val frontier : ?n:int -> unit -> config
(** The E13 configuration: quorum [n / 2], no crashes, delivery faults
    only — the campaign that must find a stale read. *)

val churn :
  ?n:int ->
  ?seed_members:int ->
  ?rate:int ->
  ?window:int ->
  ?slack:int ->
  ?width_bits:int ->
  unit ->
  config
(** The sound dynamic configuration: default [n = 8] slots, 5 seeded,
    one churn event per 60-event window, quorums widened by the rate
    ([slack] defaults to [rate]). No crashes — the preset isolates the
    churn axis. [width_bits] additionally bounds Dynreg timestamps. *)

val churn_frontier : ?n:int -> ?seed_members:int -> unit -> config
(** Above-bound churn with zero slack under the static frontier's
    delay/reorder profile — the campaign that must find a stale read
    caused by reconfiguration: a write acknowledged partly by members
    about to leave, then invisible to a plain majority of survivors. *)

val validate : config -> (config * string list, string) result
(** Construction-time validation. [Error] for unsatisfiable or vacuous
    settings (quorum outside [1..n], [n > 61], negative script counts, bad
    churn parameters) and for static configurations the pooled
    {!Pack}ed fleet cannot run: [t >= n/2] without a [quorum] override,
    or scripts that overflow a packed field ({!Pack.fits_static}). [Ok]
    pairs a possibly-clamped config with human-readable warnings (today:
    [crashes > t] clamps to [t]). {!campaign} applies this itself — hard
    errors raise [Invalid_argument], warnings print to stderr once per
    campaign. The single-run drivers raise [Invalid_argument] on a static
    configuration outside the packed layout or with [t >= n/2] and no
    override. *)

type outcome = {
  verdict : int Check.Linearize.verdict;
  history : int Check.Linearize.event list;
  plan : Faults.compiled;
      (** the replayable record of the run, in packed opcode form —
          {!Faults.decompile} recovers the action list when one is
          needed (shrinking, corpus persistence) *)
  events : int;  (** fault-layer actions executed *)
  deliveries : int;
  completed : int;  (** operations that got a response *)
  hop_mask : int;
      (** {!Net.hop_mask} of the run's network: which hop-latency buckets
          its deliveries occupied — a fleet coverage signal *)
}

val failed : outcome -> bool

val run_random : seed:int -> config -> outcome
(** One seeded campaign run: random crash pattern (at most
    [config.crashes], never more than [config.t] processes) and churn
    schedule, then {!Faults.run_random} until quiescence or
    [config.max_events]. The seed names the run: the same seed and
    config give the same plan, history and verdict. *)

val run_compiled : config -> Faults.compiled -> outcome
(** Replay a compiled plan from the initial state, bit-for-bit:
    [run_compiled c (run_random ~seed c).plan] reproduces that run. A
    list-form plan replays through {!Faults.compile}, which raises
    [Invalid_argument] on an out-of-range operand. *)

val shrink : config -> Faults.plan -> Faults.plan * int
(** ddmin a failing plan down to a 1-minimal failing plan, and the number
    of probes spent (the "replays" reports print); the input when it does
    not fail. Probes are verdicts on sub-arrays of the compiled plan. A
    repeated candidate is answered from a memo: it counts as a probe but
    does not replay, so only executed probes emit [net] instants or bump
    [net.enters]/[net.leaves]. *)

type found = {
  seed : int;
  original : outcome;
  shrunk : Faults.plan;
  shrunk_outcome : outcome;  (** replay of the shrunk plan: still failing *)
  shrink_tests : int;
}

type campaign = {
  runs : int;  (** runs actually completed *)
  requested : int;  (** runs asked for *)
  degraded : bool;  (** the deadline stopped the campaign early *)
  violations : int;
  total_events : int;
  total_completed : int;
  first : found option;  (** first violation, shrunk and re-verified *)
}

val campaign :
  ?deadline:float -> ?jobs:int -> seed:int -> runs:int -> config -> campaign
(** Seeds [seed .. seed + runs - 1], every run checked; the first failing
    run is shrunk and its shrunk plan replayed. [deadline] (seconds,
    default none) is checked between runs: when it passes, the campaign
    stops early with [degraded = true] and however many runs it finished —
    graceful degradation rather than an unbounded tail. An individual run
    is already bounded by [config.max_events], so the overshoot past the
    deadline is at most one run (plus one shrink, if that run fails).

    Each run's [chaos.run] trace instant carries its [seed], [verdict],
    [events] and [completed]; the seed is the replay handle:
    [run_random ~seed config] reproduces the run.

    [jobs] (default 1) is the width of the {!Sched.Par.run_units} pool
    the seeded runs — one unit each, mutually independent by
    construction — go through. Outcomes are folded in seed order on the
    calling domain, where the per-run metrics, trace instants and the
    first violation's shrink also happen: for a fixed [seed], verdicts,
    counts and traces are byte-identical across any [jobs]. The one
    exception is a tripped [deadline], where how many runs finished
    inherently depends on the pool; the fold still consumes a contiguous
    seed prefix and stops at the first skipped run. *)

val pp_campaign : Format.formatter -> campaign -> unit
