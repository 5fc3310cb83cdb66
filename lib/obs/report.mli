(** Health-report rendering over telemetry artifacts.

    Folds a trace's events, as they are read, plus (optionally) a
    {!Metrics} snapshot into a small block document, rendered as Markdown
    or self-contained HTML: per-category and per-event-name counts, span
    rollups, chaos-run verdicts, the fleet's witness inventory,
    coverage-over-time curves (from [fleet.health] / [explore.progress]
    instants) and histogram percentiles. Deterministic: fixed inputs give
    byte-identical output. The [boundedreg report] and [trace summary]
    subcommands are thin wrappers over this module. *)

type table = { headers : string list; rows : string list list }
type curve = { title : string; points : (int * float) list }

type block =
  | Heading of int * string
  | Para of string
  | Table of table
  | Curve of curve

type t
(** What a report prints, folded from a trace one event at a time. *)

val create : unit -> t
(** No events yet. *)

val of_trace : in_channel -> (t, string) result
(** Fold a trace read by {!Sink.iter_trace}, whose errors it returns. An
    End pairs with the innermost open Begin on its track, or is skipped:
    a flight dump starts mid-span. *)

val validate : in_channel -> (t, string) result
(** {!of_trace} for [boundedreg trace summary], which also rejects the
    first in file order of an unknown category ([unknown event category
    "C" (event "N")]) and an unpaired End ([span end without begin on
    track T]), then open spans ([D unclosed span(s) on track T]). *)

val summary : t -> block list
(** The Events section (event counts per category and per event name and
    kind) and the Span rollups section (count, ticks and mean ticks per
    span kind). This is what [boundedreg trace summary] prints after
    validating a trace. *)

val of_sources : ?metrics:Json.t -> t -> block list
(** Build the report document. [metrics] is a {!Metrics.snapshot} value;
    its sections are omitted when it is absent. Histogram rows read the
    snapshot's [p50]/[p90]/[p99] fields. *)

val to_markdown : block list -> string
(** Curves render as unicode sparklines. *)

val to_html : block list -> string
(** Curves render as inline SVG polylines; no external assets. *)
