(** Deterministic, replayable fault injection over {!Net}.

    The ABD emulation (Section 6, step 1) is advertised against an
    asynchronous network with crash failures; Attiya-style register
    simulations are additionally expected to shrug off message loss,
    duplication and reordering, since a quorum system never waits for any
    specific [t] processes. This layer makes those faults first-class
    {e events}: every perturbation of the network — a delivery, a drop, a
    duplication, a head-of-line reorder, a crash — is one {!action}, and a
    run is exactly its action sequence (the {!plan}).

    Two drivers produce runs. {!run_random} rolls seeded {!Bits.Rng} dice
    against a {!profile} of per-event fault probabilities (with delay
    bursts that freeze a channel for a stretch of events, and scheduled
    crash-at-event-index injections); whatever it ends up doing is
    recorded ({!compiled_plan}). {!replay_compiled} re-executes a recorded
    plan bit-for-bit — the random and scripted modes meet in the same
    [action] vocabulary, so a shrunk counterexample (see {!Check.Shrink})
    is replayed by the exact machinery that found it.

    In memory a plan has one working form, {!compiled}: the recorder
    produces it, replay walks it, and the fleet mutates, crosses over and
    stores it. The {!plan} list is the edge form, for text and JSON,
    shrinking and witness identity. *)

type channel = { src : int; dst : int }

type action =
  | Deliver of channel  (** pop the channel head into the destination *)
  | Drop of channel  (** lose the channel head *)
  | Duplicate of channel  (** re-enqueue a copy of the head at the tail *)
  | Defer of channel  (** move the head behind the tail: reordering *)
  | Crash of int
  | Enter of int  (** churn: an absent slot joins ({!Net.enter}) *)
  | Leave of int  (** churn: a present slot departs ({!Net.leave}) *)

type plan = action list

val pp_plan : Format.formatter -> plan -> unit
(** Each action as one {!action_to_string} token: lines break only at
    the "; " separators. *)

val deliveries : plan -> int
(** Number of [Deliver] actions — the size metric for shrunk plans. *)

(** {1 Plan codecs}

    The chaos-fleet corpus persists plans on disk in a human-editable
    form: a JSON array whose elements are exactly what
    {!action_to_string} returns, and the parsers below invert it.
    {!pp_plan} text is for people; nothing reads it back. *)

val action_to_string : action -> string
(** [deliver 0>2], [drop 0>2], [dup 0>2], [defer 0>2], [crash 3],
    [enter 3], [leave 3] — the fault-plan grammar quoted in
    EXPERIMENTS.md. One printer writes that grammar, and
    {!pp_plan}, {!plan_to_json} and {!add_compiled_json} all use it. *)

val action_of_string : string -> (action, string) result
(** Inverse of {!action_to_string}; [Error] names the offending token
    (unknown keyword, malformed channel, non-integer pid). *)

val plan_to_json : plan -> Obs.Json.t
(** A JSON array of action strings — one corpus line's [plan] field. *)

val plan_of_json : Obs.Json.t -> (plan, string) result
(** Inverse of {!plan_to_json}. *)

(** {1 Compiled plans}

    A compiled plan is the dense int-opcode form of an action list: one
    immediate int per action, walked by {!replay_compiled} with no
    per-action pattern match or allocation. An opcode's layout is
    private to this module; the array is not. Every opcode is checked
    when it is made, so any subsequence or concatenation of plans
    compiled for [n] is again a plan for [n] — the shrinker probes
    [Array.sub]s of one. The fleet compiles each loaded corpus plan once
    and from then on only mutates, keys and replays the packed form. *)

type code
type compiled = code array

val check : n:int -> plan -> (unit, string) result
(** Every operand of the plan names a slot of a universe of size [n];
    the [Error] names the first offending action (1-based). *)

val compile : n:int -> plan -> compiled
(** Validate every operand against universe size [n] and pack.
    @raise Invalid_argument on an out-of-range channel or pid — a
    compiled plan can therefore be replayed unchecked. *)

val decompile : compiled -> plan

val add_compiled_json : Buffer.t -> compiled -> unit
(** Appends the text of [plan_to_json (decompile c)], building neither:
    one [Buffer.add_subbytes] of text built in a per-domain scratch. *)

val scan_compiled_json : n:int -> string -> int -> int -> compiled option
(** [s.[i..j)] when it is text {!add_compiled_json} prints, save that an
    operand may carry leading zeros (a digit after a value of 26 or more
    ends the form), with every operand below 256 and [n]; read in one
    pass. [None] leaves any other text, and every error, to
    {!plan_of_json} and {!check}.
    @raise Invalid_argument unless [0 <= i] and [j <= String.length s]. *)

val compiled_deliveries : compiled -> int
(** {!deliveries} over the packed form, without decoding. *)

val compiled_hash : compiled -> int
(** Content address of a compiled plan: a splitmix-seeded order-sensitive
    fold ({!Sched.Zobrist.combine}) over the opcode array — identical
    across runs, processes and domains. Non-negative. The fleet's run
    cache keys scripted jobs on this, and a shrink its probe memo. *)

val compiled_equal : compiled -> compiled -> bool
(** Opcode-array equality — the exact-identity check behind a
    {!compiled_hash} match. *)

(** {1 Plan mutation}

    The chaos fleet's mutation engine, over the packed form. Every
    generated pid and channel endpoint is drawn in [[0, n)], so a mutant
    of a plan compiled for [n] replays against the same universe
    without raising, whatever the splicing did: {!replay_compiled}
    skips ineffective actions silently. Both operators are
    deterministic in the rng stream, and the stream they draw is pinned:
    published fleet corpora depend on it. *)

val mutate : Bits.Rng.t -> n:int -> ?churn:bool -> compiled -> compiled
(** 1–3 rounds of: splice a run of actions out, duplicate a run, move a
    run, re-roll one action's operands (same kind), retarget/reposition
    a crash (or inject one when there is none), or insert 1–4 fresh
    random actions. [churn] (default false) admits [enter]/[leave] among
    the fresh actions; off, the rng stream is exactly the pre-churn one,
    so static-membership corpora are unaffected by the wider grammar. *)

val crossover : Bits.Rng.t -> compiled -> compiled -> compiled
(** Single-point crossover: a prefix of the first parent spliced to a
    suffix of the second. An empty parent yields the other unchanged,
    with no draw. *)

type profile = {
  drop : float;  (** per-event probability of losing the chosen head *)
  duplicate : float;
  defer : float;
  delay : float;  (** probability of freezing the chosen channel instead *)
  delay_span : int;  (** freeze length, in events *)
  max_channel_drops : int;  (** drop budget per channel ([max_int] = none) *)
  crash_at : (int * int) list;  (** (pid, crash at this event index) *)
  enter_at : (int * int) list;  (** (pid, enter at this event index) *)
  leave_at : (int * int) list;  (** (pid, leave at this event index) *)
}

val reliable : profile
(** All fault probabilities zero, no crashes: {!run_random} is then a
    fault-free random delivery schedule over the reliable-FIFO {!Net}.
    Build custom profiles with [{ reliable with drop = 0.1; ... }]. *)

type 'm t

val wrap : 'm Net.t -> 'm t
val net : 'm t -> 'm Net.t
val events : 'm t -> int
(** Effective actions executed so far, by either driver. *)

val compiled_plan : 'm t -> compiled
(** Every effective action executed so far, oldest first — the
    replayable record, one array copy; what the chaos layer stores in
    each outcome. *)

val run_random :
  rng:Bits.Rng.t ->
  profile:profile ->
  max_events:int ->
  'm t ->
  unit
(** Randomized events until quiescence or [max_events]. Each one fires
    the due schedule entries ([enter_at], then [leave_at], then
    [crash_at]), picks a deliverable channel (skipping frozen ones
    unless all are frozen), rolls the fault dice and applies the
    outcome. *)

val replay_compiled : 'm t -> compiled -> unit
(** Execute a plan action by action, recording the effective ones. An
    action with no effect — empty channel, crashed destination,
    single-message [Defer], [Crash] of a dead process, [Enter] of a
    present slot — is skipped and not recorded, which is what lets
    {!Check.Shrink.ddmin} delete plan elements freely. Replaying the
    record of a previous run against a freshly built identical network
    reproduces that run exactly: same deliveries, same handler
    executions, same final state. *)

val reset : 'm t -> unit
(** Clear the wrapper back to its post-{!wrap} state — empty recording,
    no frozen channels, fresh drop budgets — without reallocating. Does
    not touch the wrapped network; a pooled caller pairs this with
    {!Net.reset}. *)
