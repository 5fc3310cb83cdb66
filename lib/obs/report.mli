(** Health-report rendering over telemetry artifacts.

    Folds a trace's events plus (optionally) a {!Metrics} snapshot into
    a small block document, rendered as Markdown or self-contained HTML:
    per-category and per-event-name counts, span rollups, chaos-run
    verdicts, the fleet's witness inventory, coverage-over-time curves
    (from [fleet.health] / [explore.progress] instants) and histogram
    percentiles. Pure and deterministic: fixed inputs give
    byte-identical output. The [boundedreg report] subcommand is a
    thin wrapper over this module. *)

type table = { headers : string list; rows : string list list }
type curve = { title : string; points : (int * float) list }

type block =
  | Heading of int * string
  | Para of string
  | Table of table
  | Curve of curve

val summary : Sink.event list -> block list
(** The Events section (event counts per category and per event name and
    kind) and the Span rollups section (count, ticks and mean ticks per
    span kind, pairing each End with the innermost open Begin on its
    track). This is what [boundedreg trace summary] prints after
    validating a trace. *)

val of_sources : ?metrics:Json.t -> Sink.event list -> block list
(** Build the report document. [metrics] is a {!Metrics.snapshot} value;
    its sections are omitted when it is absent. Histogram rows read the
    snapshot's [p50]/[p90]/[p99] fields. *)

val to_markdown : block list -> string
(** Curves render as unicode sparklines. *)

val to_html : block list -> string
(** Curves render as inline SVG polylines; no external assets. *)
