(** Pluggable trace consumers.

    Instrumentation sites emit neutral {!event}s through one global sink.
    The default sink is {!nil}: {!enabled} is then [false] and a site
    guarded by it pays one load-and-compare for the whole feature. Event
    timestamps are logical (see {!Span}); the JSONL and catapult writers
    render them as-is, so a fixed schedule and seed produce byte-identical
    output run over run.

    Routing is per-domain. By default events reach the global sink from
    the main domain only — sinks are single-consumer — and a bare worker
    domain's emission sites stay disabled. A pool unit participates by
    running under {!captured}, which buffers its emissions privately for
    the pool driver to drain on the main domain (in deterministic order)
    after join; {!Span} states the whole routing rule. *)

type kind = Begin | End | Instant

type event = {
  kind : kind;
  name : string;
  cat : string;  (** subsystem, e.g. ["sched"], ["net"], ["fleet"] *)
  track : int;  (** pid / lane; rendered as the catapult [tid] *)
  ts : int;  (** logical clock stamp ({!Span.now}) *)
  args : (string * Json.t) list;
}

type t = { emit : event -> unit; flush : unit -> unit }

val nil : t
(** Drops everything. The installed default. *)

(** {2 The global sink} *)

val enabled : unit -> bool
(** Whether the calling domain should construct and emit events. [false]
    when the installed sink is {!nil}; with a sink installed it is
    [true] on the main domain and inside {!captured} on any domain,
    [false] on bare worker domains. Guard event construction with this:
    [if Sink.enabled () then Sink.emit {...}]. *)

val captured : (unit -> 'a) -> 'a * event list
(** [captured f] runs [f] with the calling domain's emissions redirected
    into a private in-memory buffer and returns them alongside [f]'s
    result. {!enabled} is [true] inside, on any domain, while a sink is
    installed — this is how pool units trace: capture where the work
    runs, drain on the main domain in a deterministic order via
    {!Span.replay}, which stamps them and feeds the sink and the flight
    {!Recorder}. If [f] raises, the exception propagates and the
    buffered events are dropped. *)

val capturing : unit -> bool
(** Whether the calling domain is inside {!captured}. *)

val set : t -> unit

val clear : unit -> unit
(** Flush the installed sink and restore {!nil}. *)

val emit : event -> unit
(** Route an event to the calling domain's private buffer inside
    {!captured}, to the global sink otherwise. *)

val flush : unit -> unit

val with_sink : t -> (unit -> 'a) -> 'a
(** Install a sink for the call, flush it, restore the previous sink
    (even on exceptions). *)

(** {2 Serialization} *)

val event_json : event -> Json.t
(** Chrome [trace_event] object: [name]/[cat]/[ph]/[ts]/[pid]/[tid],
    [s:"t"] on instants, [args] when non-empty. *)

val event_of_json : Json.t -> event option
(** Inverse of {!event_json}; [None] when [name]/[ph] are missing.
    Unknown fields (e.g. the [dom] of flight dumps written before the
    recorder kept one ring) are ignored. *)

val iter_trace :
  in_channel -> (event -> (unit, string) result) -> (unit, string) result
(** [iter_trace ic f] reads a trace file, JSONL or catapult (chosen by a
    leading [[]), one event at a time, handing each to [f]. The first
    fault in file order, an [Error] of [f] or a bad line or element, is
    the result: [line N unparseable (…)] (N counts non-blank lines),
    [line N: object is not a trace event: …] ([element N: …] in a
    catapult array, counted from 1), or [unparseable catapult array (at
    P: …)], P being where a parser handed the whole array, blanks around
    it trimmed, stops. Raises only the channel's [Sys_error]. *)

val kind_to_string : kind -> string

(** {2 Writers} — take a [string -> unit] so they serve both channels
    ([output_string oc]) and buffers ([Buffer.add_string b]). *)

val jsonl : (string -> unit) -> t
(** One {!event_json} object per line. *)

val catapult : (string -> unit) -> t
(** A Chrome [trace_event] JSON array, viewable in [about:tracing] and
    Perfetto. The closing bracket is written on [flush] — flush exactly
    once, e.g. via {!with_sink} or {!clear}. *)
