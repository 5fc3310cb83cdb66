(** Churn-tolerant MWMR register emulation over dynamic membership —
    after Attiya–Chung–Ellen–Kumar–Welch, "Simulating a Shared Register
    in a System that Never Stops Changing" (see PAPERS.md).

    Where {!Abd} waits for a static [n - t] quorum, this emulation sizes
    quorums against a gossiped {!Membership.view} of who is currently in
    the computation, widened by a [slack] that absorbs the churn the
    view may be lagging behind. Every message is an envelope carrying
    the sender's view; receivers merge (a join-semilattice, so gossip
    converges) and re-evaluate any pending quorum against the merged
    view — membership changes can complete an operation without another
    ack arriving.

    Lifecycle: a slot seeded into the initial view starts {e active}; a
    later arrival starts with a [Join] broadcast, adopts state from a
    quorum of [Join_ack]s, and activates ({!completion} [Activated]).
    Reads and writes are both query-then-update (MWMR: a writer must
    learn the highest timestamp before exceeding it); a read's update
    phase is the ABD write-back that makes it atomic. Departure
    ({!farewell}, wired to {!Net}'s [on_leave]) announces a [Goodbye]
    so surviving views shrink. {!reset} puts a peer back at the start
    of this lifecycle — active or joining, as [initial] says — so the
    pooled chaos fleet ({!Chaos}) builds its peers once per domain and
    rewinds them before every run.

    [width_bits] bounds the timestamp field to [b] bits, wrapping
    arithmetic mod [2^b] — the bounded-register knob of the source
    paper, transplanted to the dynamic emulation. Once a counter laps
    the width, newer data compares below stale copies; experiment E17
    maps where on the churn-rate × width grid the emulation stays
    linearizable.

    Like {!Abd}, the state machine is transport-agnostic: every message
    goes out through the [send] callback given at {!create} — a
    broadcast is one call per pid, [0 .. n-1] in order, and a handler
    sends its reply before any broadcast the reply's quorum triggers.
    One outstanding operation per process. *)

type 'v payload = { ts : int; rank : int; value : 'v }
(** A stamped copy: timestamps ordered lexicographically by
    [(ts, rank)], rank being the writing pid — the MWMR tie-break. *)

type 'v body =
  | Join  (** arrival announcement: active members reply [Join_ack] *)
  | Join_ack of 'v payload array  (** a full state snapshot to adopt *)
  | Goodbye  (** departure announcement (the view does the work) *)
  | Query of { reg : int; op : int }
  | Query_ack of { reg : int; op : int; found : 'v payload }
  | Update of { reg : int; op : int; data : 'v payload }
  | Update_ack of { reg : int; op : int }

type 'v msg = { view : Membership.view; body : 'v body }

type 'v completion =
  | Activated  (** the join protocol finished; [begin_*] is now legal *)
  | Wrote
  | Read_value of 'v

type 'v t

val create :
  n:int ->
  me:int ->
  slack:int ->
  ?width_bits:int ->
  registers:int ->
  init:(int -> 'v) ->
  initial:Membership.view ->
  send:(dst:int -> 'v msg -> unit) ->
  unit ->
  'v t
(** [n] is the slot universe ({!Net}'s size). A [me] inside [initial]
    starts active; outside, it starts joining (broadcast via {!start}).
    [slack] widens every quorum per {!Membership.quorum} — soundness
    under churn requires slack at least the per-window churn bound. [width_bits] bounds timestamps to [b] bits (default:
    unbounded).
    @raise Invalid_argument on out-of-range [me], [registers < 1],
    negative [slack], or [width_bits] outside 1..30. *)

val reset : 'v t -> unit
(** Back to the post-{!create} state: copies at [init reg], timestamp 0,
    no operation outstanding, no completion pending. *)

val start : 'v t -> unit
(** The node's opening broadcast ({!Net}'s [on_start]): a [Join] for a
    late arrival, nothing for a seeded member. *)

val farewell : 'v t -> unit
(** The departure broadcast ({!Net}'s [on_leave]): marks itself left,
    deactivates (dropping any pending operation), sends [Goodbye]. *)

val begin_write : 'v t -> reg:int -> 'v -> unit
(** Query-then-update write: learn the highest timestamp from a quorum,
    exceed it (mod the width), install at a quorum.
    @raise Invalid_argument if not active or an op is outstanding. *)

val begin_read : 'v t -> reg:int -> unit
(** Query-then-update read: adopt the highest of a quorum of replies,
    write it back to a quorum before returning — atomicity, as in ABD. *)

val handle : 'v t -> from:int -> 'v msg -> unit
(** Merge the envelope view, process the body (sending any reply),
    re-evaluate the pending quorum (broadcasting the next phase when it
    closes). Reply sets are pid bitsets, so duplicated deliveries never
    double-count. Joiners answer [Update] (store-and-ack — adopted state
    propagates through them) but not [Query] or [Join]; only activated
    members vouch for state. *)

val take_completion : 'v t -> 'v completion option
(** The pending operation's result (or [Activated]) once its quorum is
    in; clears it. *)

val view : 'v t -> Membership.view
val is_active : 'v t -> bool

val quorum : 'v t -> int
(** The threshold currently in force: [Membership.quorum ~slack] of the
    local view. *)
