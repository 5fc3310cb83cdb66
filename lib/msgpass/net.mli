(** Asynchronous reliable-FIFO message passing with crash failures — the
    model of the Attiya–Bar-Noy–Dolev simulation (Section 6, step 1).

    Channels never lose or reorder messages; delivery delay is unbounded
    (the scheduler picks any non-empty channel). A crashed process neither
    processes nor sends. Nodes are mutable callbacks, so this substrate has
    no exhaustive mode — correctness here is checked with seeded random
    schedules. {!Faults} is the one driver: {!Faults.run_random} under
    {!Faults.reliable} is the fault-free random schedule, and
    {!Faults.replay_compiled} a scripted one. *)

type 'm node = {
  on_start : unit -> unit;
      (** called when the process first runs (at creation for
          initially-present slots, at {!enter} for late joiners) *)
  on_message : from:int -> 'm -> unit;
  on_leave : unit -> unit;
      (** called when the process departs gracefully via {!leave}, while it
          may still send its farewell; never called on {!crash} *)
}
(** A process. It sends by calling the [send] closure it was built over
    (see {!create}), which pushes the message straight into the network:
    no sends list is allocated per handler call. *)

type 'm t

val create :
  ?present:(int -> bool) ->
  n:int ->
  nodes:(send:(dst:int -> 'm -> unit) -> int -> 'm node) ->
  unit ->
  'm t
(** Each node is built over a [send] closure bound to its own pid; sends
    from a crashed or departed source vanish silently, and out-of-range
    destinations raise [Invalid_argument]. Processes may send to
    themselves. [on_start] callbacks run immediately, in pid order, for
    every slot where [present pid] holds (default: all). Slots that start
    absent are future joiners: their [on_start] runs when {!enter} brings
    them in.
    @raise Invalid_argument if [n] is not in [1..61] (membership is kept
    in single-word bitsets). *)

val reset : ?present:(int -> bool) -> 'm t -> unit
(** Return a network to its post-{!create} state without reallocating:
    clears every channel, revives all slots, resets membership to
    [present] (default: all), zeroes the delivery counter and hop mask,
    and re-runs [on_start] for present slots in pid order. The
    node callbacks themselves are retained — callers pooling a network
    must reset their protocol state before calling this. Channel rings
    keep their grown capacity, which is the point: a pooled network stops
    allocating once its rings have seen their high-water mark. *)

val n : 'm t -> int

val deliver : 'm t -> src:int -> dst:int -> bool
(** Scripted delivery: pop the head of channel [src → dst] and run the
    destination's handler. Adversarial delivery orders are expressed by
    choosing the channel per event; {e within} a channel order stays FIFO —
    non-FIFO behaviour exists only through {!defer}, which the base
    substrate never calls (see {!Faults}). [false] if the channel is empty
    or the destination has crashed (the message stays queued).
    @raise Invalid_argument if [src] or [dst] is out of range. *)

val deliverable_into : 'm t -> int array -> int
(** The deliverable channels — queued messages and a live, present
    destination: writes their flat codes [src * n + dst] into the buffer
    in lexicographic order and returns how many were written; [0] means
    the network is quiescent. The buffer must have length at least
    [n * n]. {!Faults.run_random} draws index [Rng.int rng count] of the
    filled prefix, so this order is part of every recorded seed's
    replay stream. The scan walks a
    per-source bitset of non-empty channels, so empty channels cost
    nothing. It is branch-free: each scanned position is stored at the
    count, which advances by the position's bit, so a clear bit's code
    is overwritten and nothing at or past the returned count is written. *)

val pending : 'm t -> src:int -> dst:int -> int
(** Messages queued on channel [src → dst].
    @raise Invalid_argument if [src] or [dst] is out of range. *)

(** {1 Fault primitives}

    The reliable-FIFO substrate of the ABD model never invokes these; they
    exist so a fault-injection layer ({!Faults}) can perturb channels
    through the public interface. Each returns [false] (and does nothing)
    when it would have no observable effect. *)

val drop : 'm t -> src:int -> dst:int -> bool
(** Discard the head of channel [src → dst] (message loss). *)

val duplicate : 'm t -> src:int -> dst:int -> bool
(** Re-enqueue a copy of the head of [src → dst] at the tail. *)

val defer : 'm t -> src:int -> dst:int -> bool
(** Move the head of [src → dst] to the tail — the reordering primitive;
    [false] when fewer than two messages are queued. *)

val crash : 'm t -> int -> unit
val alive : 'm t -> int -> bool

(** {1 Dynamic membership}

    The fixed [n] slots are a {e universe} of potential processes; at any
    moment a slot is present (participating), absent-not-yet-entered (a
    future joiner), or departed. Entering and leaving are fault-layer
    events like {!crash} — the ABD substrate never calls them — and both
    return [false] when ineffective so replay can skip them. *)

val enter : 'm t -> int -> bool
(** Bring an absent slot into the computation: marks it present and runs
    its [on_start]. [false] if already present, already departed, or
    crashed — a departed slot never re-enters (fresh arrivals are fresh
    slots, as in the dynamic-membership model).
    @raise Invalid_argument if the pid is out of range. *)

val leave : 'm t -> int -> bool
(** Graceful departure: enqueue the node's [on_leave] farewell (sent
    while still present), then mark the slot departed. Pending messages
    to it are never delivered. [false] if absent or crashed.
    @raise Invalid_argument if the pid is out of range. *)

val is_present : 'm t -> int -> bool
(** The slot has entered and not yet left. Crashing does not clear
    presence — a crashed member is a faulty member, not a departed one.
    @raise Invalid_argument if the pid is out of range. *)

val hop_bounds : int array
(** Bucket upper bounds of the hop-latency histogram (logical hops
    between a message's enqueue and its delivery; last bucket implicit
    overflow) — the bounds of the [net.hop_latency] registry metric. *)

val hop_mask : 'm t -> int
(** Bitmask of the hop-latency buckets this network's deliveries have
    occupied: bit [b] is set iff some delivery fell in bucket [b] of
    {!hop_bounds}. The per-run, replay-stable view of the registry's
    cumulative [net.hop_latency] histogram — a coverage signal for the
    chaos fleet. *)
