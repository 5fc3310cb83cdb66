(** Structured spans and instant events on a {e logical} clock.

    Timestamps are sequence numbers ticked per constructed event. A
    replayed execution (same init, same schedule, same seed) constructs
    the same event sequence, so its trace is byte-identical — the
    property the trace determinism tests pin down. Wall time is opt-in
    and travels as a [wall_s] argument, never as the timestamp.

    The clock is per-domain. Parallel workers capturing events (see
    {!captured}) stamp them on private clocks; {!replay} re-stamps on the
    drain domain's clock, so a published trace is one monotone
    main-domain stream.

    Emission helpers construct an event when the calling domain is
    traced ({!Sink.enabled}) {e or} the flight {!Recorder} is armed (the
    default) — so the clock ticks exactly when an event is constructed.
    With the recorder disarmed and tracing off, a helper call is a no-op
    and does not tick the clock. *)

val now : unit -> int
(** Tick and read the calling domain's logical clock. *)

val reset : unit -> unit
(** Rewind the calling domain's clock to 0 — the start of a fresh
    capture. *)

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
    scheduler, the network and Dynreg stamp their per-process events
    with its pid. *)

val begin_ : ?cat:string -> ?args:(string * Json.t) list -> string -> unit
(** Spans are on track 0. *)

val end_ : ?cat:string -> ?args:(string * Json.t) list -> string -> unit

val span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f ()] in a [Begin]/[End] pair; an escaping
    exception still closes the span (with an [exn] argument) before
    re-raising. *)

val captured : (unit -> 'a) -> 'a * Sink.event list
(** [captured f] runs [f] under {!Sink.captured} on a fresh clock,
    restoring the caller's count afterwards, and returns [f]'s result
    with the events it emitted. Pool drivers run each unit in this, on
    whichever domain executes it, and drain the events with {!replay}.
    The fresh clock keeps a unit executed on the main domain from
    advancing the clock that {!replay} stamps with — otherwise the
    published stamps would depend on which domain happened to execute
    which unit. *)

val replay : Sink.event list -> unit
(** Re-emit captured events into the calling domain's live trace,
    re-stamping each on this domain's clock (capture-time stamps are
    scratch). Emits to the sink only — never back into the recorder, the
    originating domain's ring already holds them. No-op when
    {!Sink.enabled} is [false]. *)
