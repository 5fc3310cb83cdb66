(** Crash-isolated experiment runs.

    [boundedreg run all] used to be as reliable as its least reliable
    experiment: one uncaught exception or non-terminating search lost
    every report after it. The supervisor runs each {!Registry.t} entry
    in isolation — output buffered, exceptions caught with their
    backtraces, a wall-clock alarm ({!Unix.setitimer} + [SIGALRM])
    aborting hung runs — and renders a summary table plus a process exit
    code, so the full suite always completes and CI can still fail. *)

type status =
  | Passed
  | Degraded of string list
      (** completed, but some check fell back to sampled coverage; the
          notes come from {!Ctx.t}'s [degraded] callback *)
  | Timed_out of float  (** aborted by the per-experiment deadline *)
  | Crashed of { exn_text : string; backtrace : string }

type result = {
  experiment : Registry.t;
  status : status;
  seconds : float;  (** wall clock, summed over attempts *)
  attempts : int;  (** 2 when a seeded experiment was retried *)
  output : string;  (** everything the experiment printed (possibly partial) *)
}

val pp_status : Format.formatter -> status -> unit
val status_ok : status -> bool

val run_one :
  ?deadline:float ->
  ?budget:Sched.Budget.t ->
  ?jobs:int ->
  Registry.t ->
  result
(** Run one experiment under a [deadline] (seconds of wall clock, default
    none) and a {!Ctx.t} carrying [budget] (default unlimited) and [jobs]
    (default 1, the domain-pool width for parallelizable checks). A seeded
    experiment that crashes is retried once — flakes surface as
    [attempts = 2] rather than a failed run; timeouts are not retried.

    Caveat when combining [deadline] with [jobs > 1]: the SIGALRM abort
    interrupts the main domain only, so worker domains mid-unit finish
    their unit before the process can exit — the timeout is best-effort
    under parallelism, exactly as precise as the units are short. *)

val run_all :
  ?budget:Sched.Budget.t ->
  ?jobs:int ->
  ?ppf:Format.formatter ->
  ?experiments:Registry.t list ->
  unit ->
  result list
(** The suite loop behind [boundedreg run]: {!run_one} over [experiments]
    (default {!Registry.all}), printing to [ppf] (default stdout) each
    experiment's [=== id  slug ===] header before it starts, then its
    buffered output and, for failures, a [***] status line with the
    exception and backtrace. Each experiment gets the whole [budget]
    (default unlimited); when it has a deadline [d], {!run_one}'s hard
    alarm is set at [1.5 d + 1] seconds, so only an experiment that
    ignores its budget is killed. Always returns all results: no
    experiment can prevent a later one from running. *)

val summary : Format.formatter -> result list -> unit
(** The per-experiment status table (id, status, wall clock, attempts),
    degradation notes, and a one-line verdict. *)

val exit_code : result list -> int
(** [0] when every status is {!status_ok}, [1] otherwise — the process
    exit code for [boundedreg run]. *)
