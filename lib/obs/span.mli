(** Structured spans and instant events on a {e logical} clock.

    Timestamps are sequence numbers ticked per constructed event. A
    replayed execution (same init, same schedule, same seed) constructs
    the same event sequence, so its trace is byte-identical — the
    property the trace determinism tests pin down. Wall time is opt-in
    and travels as a [wall_s] argument, never as the timestamp.

    One rule decides where an event goes:
    - inside a {!Sink.captured} block, on any domain: into the capture
      buffer only, unstamped and unrecorded;
    - on the main domain outside a capture: stamped on the one clock,
      emitted if traced ({!Sink.enabled}), recorded by the flight
      {!Recorder} if armed (the default);
    - on a worker domain outside a capture: nowhere — no event is
      constructed.

    Pool drivers capture each unit and drain its events with {!replay},
    which applies the main-domain rule, so a published trace and the
    flight ring are both one monotone main-domain stream. The clock
    ticks exactly when the main domain constructs or replays an event:
    with the recorder disarmed and tracing off, a helper call is a no-op
    and does not tick it. *)

val now : unit -> int
(** Tick and read the logical clock. Main domain only. *)

val reset : unit -> unit
(** Rewind the clock to 0 — the start of a fresh trace. *)

val set_wall_clock : (unit -> float) option -> unit
(** Install (or remove, with [None]) a wall-time source; when set, every
    emitted event carries a [wall_s] argument. Off by default — wall time
    breaks byte-level determinism. *)

val wall_enabled : unit -> bool
(** Whether a wall-time source is installed. Samplers use this to gate
    rate/ETA fields, which are only meaningful (and only deterministic
    to omit) when the user opted into wall time. *)

val instant :
  ?cat:string -> ?track:int -> ?args:(string * Json.t) list -> string -> unit
(** [track] (default 0) is the process the instant belongs to: the
    network and Dynreg stamp their per-process events with its pid. *)

val begin_ : ?cat:string -> ?args:(string * Json.t) list -> string -> unit
(** Spans are on track 0. *)

val end_ : ?cat:string -> ?args:(string * Json.t) list -> string -> unit

val span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f ()] in a [Begin]/[End] pair; an escaping
    exception still closes the span (with an [exn] argument) before
    re-raising. *)

val replay : Sink.event list -> unit
(** Apply the main-domain rule to events captured by {!Sink.captured}, in
    order: each is stamped on the clock (capture-time stamps are
    scratch), emitted if traced and recorded if armed. Inside an
    enclosing capture the events pass into its buffer instead; on a
    bare worker domain they are dropped. *)
