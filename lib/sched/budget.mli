(** Composable resource budgets for the verification stack.

    Exhaustive state spaces blow up without warning: a budget turns "run
    until done" into "run until done {e or} until a resource cap trips",
    and every consumer reports {e which} cap tripped instead of silently
    truncating. One [t] bundles the two caps the exploration engine (and
    the chaos campaigns, and the experiment supervisor) understand:

    - a wall-clock deadline, in seconds from the moment the budget is
      {!arm}ed;
    - a cap on expanded search nodes (total steps across the whole
      exploration, not per path — per-path bounds stay [max_steps]).

    A budgeted exploration that stops early hands back a {!frontier}: the
    schedule prefixes of every subtree it did not visit. The frontier is a
    plain serializable value — write it to disk, and a later call resumes
    exactly the missing work ({!Explore.explore}'s [resume]). *)

type t = {
  deadline : float option;  (** wall-clock seconds, from {!arm} *)
  max_nodes : int option;  (** total search nodes expanded *)
}

val unlimited : t

val make : ?deadline:float -> ?max_nodes:int -> unit -> t
(** Omitted caps are unlimited. *)

val is_unlimited : t -> bool

val min_caps : t -> t -> t
(** Pointwise strictest combination: the smaller of each pair of caps
    (composing an outer supervisor budget with a per-call one). *)

val pp : Format.formatter -> t -> unit
(** [deadline=2s nodes=100000] ([-] for an absent cap); [unlimited] when
    nothing is capped. *)

(** {1 Stop reasons} *)

type stop_reason =
  | Deadline
  | Node_cap

val pp_stop_reason : Format.formatter -> stop_reason -> unit
val stop_reason_to_string : stop_reason -> string

(** {1 Armed monitors}

    A monitor is a budget plus a start time. Consumers poll {!stopped}
    with their own progress counters; the monitor answers with the first
    cap that tripped. The deadline is only consulted every few dozen
    polls (a [gettimeofday] per search node would dominate small
    workloads); [clock] exists so tests can drive time deterministically. *)

type monitor

val now : unit -> float
(** The shared wall-clock all monitors read by default. One process-wide
    source (rather than a [Unix.gettimeofday] default captured per call
    site) means concurrent explorations judge the {e same} deadline. *)

val arm : ?clock:(unit -> float) -> t -> monitor
(** Start the wall-clock. [clock] defaults to the shared {!now}. *)

val budget : monitor -> t

val stopped : monitor -> nodes:int -> stop_reason option
(** First tripped cap, if any. Once a monitor has reported a stop it keeps
    reporting it (a tripped deadline does not untrip). *)

val elapsed : monitor -> float

val remaining : monitor -> nodes:int -> t
(** The budget minus what the caller has already consumed — thread this
    into a sub-call so a sequence of explorations shares one budget. *)

(** {1 Frontiers}

    The checkpoint of an exhausted exploration: for every subtree the
    budgeted run abandoned, the exact choice sequence (steps and crashes,
    from the initial state) that leads to its root. *)

type choice =
  | Step of int  (** step process [pid] *)
  | Crash of int  (** crash process [pid] *)

type frontier = choice list list
(** Each element is one unexplored subtree, as the path from the initial
    state to its root, oldest choice first. *)

val frontier_size : frontier -> int

val frontier_to_string : frontier -> string
(** One path per line, tokens [s<pid>] (step) and [c<pid>] (crash)
    separated by spaces; the empty path (whole tree) is the line [.].
    The empty frontier is the empty string. *)

val frontier_of_string : string -> (frontier, string) Result.t
(** Inverse of {!frontier_to_string}; [Error] names the offending token. *)
