(** The Attiya–Bar-Noy–Dolev emulation of SWMR atomic registers over
    message passing with a crash minority (Section 6, step 1).

    One instance per process emulates the array of [n] SWMR registers. A
    write stamps the value with the writer's local timestamp and waits for
    [n - t] acknowledgements; a read collects [n - t] replies, adopts the
    highest timestamp, and {e writes back} before returning (the write-back
    is what makes reads atomic rather than merely regular). With [t < n/2],
    any two quorums intersect, so a read sees every completed write.

    This is the repo's only ABD. The state is flat (int timestamps, op ids
    and phase; values in a ['v array]) and transport-agnostic: messages go
    out through the [send] callback given at {!create}, built and taken
    apart by an {!encoding}. Two encodings exist: {!boxed} (the ['v msg]
    variant that {!Wire} serializes — {!Interp}, {!Pipeline}, E13) and
    {!Pack.encoding} (one immediate int per message — the pooled chaos
    fleet, whose send/deliver path therefore allocates nothing). One
    outstanding operation per process — the compiled algorithms are
    sequential. *)

type 'v msg =
  | Write_req of { reg : int; ts : int; value : 'v; op : int }
  | Write_ack of { reg : int; op : int }
  | Read_req of { reg : int; op : int }
  | Read_reply of { reg : int; ts : int; value : 'v; op : int }

(** {1 Message encodings} *)

val kind_write_req : int
val kind_write_ack : int
val kind_read_req : int
val kind_read_reply : int

type ('v, 'm) encoding = {
  write_req : reg:int -> ts:int -> value:'v -> op:int -> 'm;
  write_ack : reg:int -> op:int -> 'm;
  read_req : reg:int -> op:int -> 'm;
  read_reply : reg:int -> ts:int -> value:'v -> op:int -> 'm;
  kind : 'm -> int;  (** one of the [kind_*] codes *)
  reg : 'm -> int;
  op : 'm -> int;
  ts : 'm -> int;  (** only read from requests and replies that carry one *)
  value : 'm -> 'v;  (** likewise *)
}
(** How ABD messages of type ['m] carrying values of type ['v] are built
    and decoded. *)

val boxed : ('v, 'v msg) encoding

(** {1 The state machine} *)

type ('v, 'm) t

val create :
  n:int ->
  t:int ->
  ?quorum:int ->
  registers:int ->
  init:(int -> 'v) ->
  encoding:('v, 'm) encoding ->
  send:(dst:int -> 'm -> unit) ->
  unit ->
  ('v, 'm) t
(** Emulate [registers] cells (at least [n]: the model's coordination
    registers; the {!Pipeline} adds [n] more for the input registers), each
    starting at [init reg]. Every outgoing message goes through [send].

    [quorum] defaults to [n - t], the sound choice: with [t < n/2] any two
    quorums intersect. Overriding it exists only for the t = n/2 frontier
    (E13 and the chaos frontier presets), which demonstrates the stale
    reads that disjoint quorums allow — don't.
    @raise Invalid_argument unless [0 <= t < n/2] (when [quorum] is not
    given) and [registers >= n]. *)

val reset : ('v, 'm) t -> unit
(** Back to the post-{!create} state, without allocating: every copy at
    [init reg] with timestamp 0, no operation outstanding. *)

val begin_write : ('v, 'm) t -> reg:int -> 'v -> unit
(** Start writing register [reg] (callers only write registers they own —
    ABD itself also issues write-backs to foreign registers during reads)
    and broadcast the request, to pids [0 .. n-1] in order.
    @raise Invalid_argument if an operation is already outstanding. *)

val begin_read : ('v, 'm) t -> reg:int -> unit

val handle : ('v, 'm) t -> from:int -> 'm -> bool
(** Process an incoming message, sending the reply (and, when a read's
    quorum of replies is in, the write-back broadcast). [true] exactly
    when this message completed the outstanding operation; {!result}
    then holds its value. *)

val result : ('v, 'm) t -> 'v
(** The value of the last completed operation: the value read, or for a
    write the value written. *)

val copy : ('v, 'm) t -> int -> int * 'v
(** This process's [(timestamp, value)] copy of a register. *)
