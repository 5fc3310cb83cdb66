(** The flight recorder: a black box for runs that die or misbehave.

    Every event constructed by {!Span} — traced or not — also lands in a
    fixed-capacity per-domain ring buffer of the most recent {!capacity}
    events. When a run hits a watchdog trip, an escaping exception, a
    first NONLINEARIZABLE verdict, or a SIGINT/SIGTERM, the driver calls
    {!dump} and gets a post-mortem [flight-<reason>.jsonl] containing the
    last events from every domain — enough to replay the failing
    schedule without having asked for [--trace] in advance.

    Recording is allocation-free (preallocated arrays, an index store
    and a counter bump) and lock-free on the fast path. Hot
    per-operation instrumentation is unaffected: those sites guard event
    construction on [Sink.enabled ()] / [!Sink.active], so an untraced
    run still pays one load-and-branch per operation and only coarse
    always-constructed events reach the ring. *)

val capacity : int
(** Slots per ring (the last [capacity] events per domain are kept). *)

val armed : bool ref
(** [true] (the default) records every constructed event; set [false] to
    disable recording entirely — the bench harness does this to measure
    the recorder's own overhead. *)

val record : Sink.event -> unit
(** Append to the calling domain's ring, overwriting the oldest slot
    once full. Called by {!Span}'s emission helpers; callers outside the
    emission layer rarely need it. *)

val retire : unit -> unit
(** Merge the calling (worker) domain's ring into a shared graveyard
    ring and unregister it. Pool drivers call this as each worker domain
    exits so a long run's dead domains don't accumulate; the tail of
    their events stays dumpable. No-op on the main domain. *)

type mark

val mark : unit -> mark
(** Where every ring stands now, for {!dump}'s [since]. *)

val dump : ?dir:string -> ?since:mark -> reason:string -> unit -> string option
(** [dump ~reason ()] writes [flight-<reason>.jsonl] (under [dir],
    default the current directory): one JSON object per recorded event,
    each prefixed with a ["dom"] field naming the recording domain; the
    main domain's events come first, oldest first; with [since], only
    those recorded after that mark (a ring created since gives all of
    its own). An earlier dump for the same [reason] is unlinked first,
    never truncated in place. Returns the path, or [None] when nothing
    was recorded or the write failed — a dump is best-effort and never
    raises. *)
