(** Membership views and churn schedules for the dynamic register
    emulation ({!Dynreg}).

    The ACEKW algorithm ("Simulating a Shared Register in a System that
    Never Stops Changing") tracks who is present with monotone join/leave
    announcements and sizes its quorums against the tracked set, widened
    for the churn the tracking may be lagging behind. Here a {!view} is a
    triple of bitsets over {!Net}'s fixed slot universe — entered,
    activated (join protocol finished, state adopted) and left — merged
    by pointwise union (a join-semilattice, so gossip converges), and
    {!quorum} is the churn-widened majority rule that replaces the
    static [n - t] of {!Abd}. *)

type view = { entered : int; act : int; left : int }
(** Bitsets over slot pids: monotone knowledge of who has joined, who
    has activated, and who has departed. Current members are
    [entered land lnot left]; only [act land lnot left] members answer
    queries, so quorums are sized against them. *)

val initial : int -> view
(** [initial k]: slots [0 .. k-1] entered {e and activated} (a seeded
    member has nobody to adopt state from), nobody left — the seed
    membership a run starts from. *)

val of_list : int list -> view
(** Like {!initial}: the listed pids are entered and activated. *)

val enter : view -> int -> view
(** Record a join announcement: entered but {e not} yet activated. *)

val activate : view -> int -> view
(** Record a finished join: the pid now answers queries and counts
    toward quorums. Implies entered. *)

val leave : view -> int -> view
(** Record one departure. Leaving wins over entering: a pid in both
    bitsets is not a current member, and can never return ({!Net}
    enforces the same — departed slots don't re-enter). *)

val merge : view -> view -> view
(** Pointwise union — the gossip merge. Commutative, associative,
    idempotent; [merge] never loses knowledge. *)

val current : view -> int
(** The current-member bitset ([entered land lnot left]). *)

val active : view -> int
(** The activated-and-still-here bitset ([act land lnot left]) — the
    processes quorums are sized against. *)

val members : view -> int list
(** Current members, ascending. *)

val mem : view -> int -> bool
val cardinal : view -> int
(** Number of current members. *)

val popcount : int -> int

val quorum : slack:int -> view -> int
(** [quorum ~slack v] = [min a (a / 2 + 1 + slack)] for
    [a = popcount (active v)], at least 1. [slack = 0] is a plain
    majority of the view's active members — sound only without churn.
    Widening by the churn bound keeps quorums taken under views at most
    [slack] churn events apart intersecting; the cap keeps the quorum
    satisfiable (it degrades to "every active member I know of"). *)

(** {1 Churn schedules}

    A churn schedule is the membership analogue of the fault profile's
    [crash_at] list: (pid, fire at this fault-event index) entries that
    {!Faults.run_random} turns into [Enter]/[Leave] actions. *)

type churn = { enter_at : (int * int) list; leave_at : (int * int) list }

val no_churn : churn

val random :
  Bits.Rng.t ->
  joiners:int list ->
  leavers:int list ->
  rate:int ->
  window:int ->
  span:int ->
  churn
(** A rate-bounded random schedule: churn events spaced at least
    [window / rate] fault events apart (plus jitter), starting within the
    first spacing, until [span] events or both pools are exhausted — so
    any [window]-length stretch of the run sees at most about [rate]
    churn events, the α-bound of the ACEKW adversary in the fault
    layer's logical time. [joiners] enter in list order; [leavers] are
    drawn randomly. [rate <= 0] disables churn. Driving [rate] toward
    [window] (spacing 1) is the above-bound adversary. *)
