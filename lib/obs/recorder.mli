(** The flight recorder: a black box for runs that die or misbehave.

    Every event the main domain constructs or replays through {!Span} —
    traced or not — also lands in one fixed-capacity ring of the most
    recent {!capacity} events. Worker domains never write to it: a pool
    unit's events reach the ring the way they reach the trace, captured
    where the unit runs and replayed on the main domain in unit order
    ({!Span.replay}), so the ring's contents do not depend on the pool's
    width. When a run hits a watchdog trip, an escaping exception, a
    first NONLINEARIZABLE verdict, or a SIGINT/SIGTERM, the driver calls
    {!dump} and gets a post-mortem [flight-<reason>.jsonl] — enough to
    replay the failing schedule without having asked for [--trace] in
    advance.

    Recording is allocation-free (a preallocated array, an index store
    and a counter bump) and takes no lock. Per-message sites guard event
    construction on [Sink.enabled ()] and scheduler steps construct no
    event, so only coarse always-constructed events reach the ring of an
    untraced run. *)

val capacity : int
(** Slots in the ring (the last [capacity] events are kept). *)

val armed : bool ref
(** [true] (the default) records every constructed event; set [false] to
    disable recording entirely — the bench harness does this to measure
    the recorder's own overhead. *)

val record : Sink.event -> unit
(** Append to the ring, overwriting the oldest slot once full. Called by
    {!Span}'s emission helpers, on the main domain only. *)

type mark

val mark : unit -> mark
(** Where the ring stands now, for {!dump}'s [since]. *)

val dump : ?dir:string -> ?since:mark -> reason:string -> unit -> string option
(** [dump ~reason ()] writes [flight-<reason>.jsonl] (under [dir],
    default the current directory): one {!Sink.event_json} object per
    recorded event, oldest first; with [since], only those recorded after
    that mark. An earlier dump for the same [reason] is unlinked first,
    never truncated in place. Returns the path, or [None] when nothing
    was recorded or the file could not be opened. *)
