(** Process-wide registry of named counters, gauges and fixed-bucket
    histograms.

    Resolution happens once: a hot path registers its metric at module
    initialization ([let steps = Obs.Metrics.counter "sched.steps"]) and
    each event is then a plain field mutation — no hashing, no
    allocation. Per-operation sites additionally guard with {!hot} so
    the instrumentation costs one branch while nobody is reading the
    registry. Metrics are monotone event tallies: the exploration
    engine's undo ([Scheduler.branch]) rewinds scheduler {e state}, not
    the count of work performed, so re-explored operations count every
    time they run.

    Registration is idempotent per name; re-registering a name as a
    different kind (or a histogram with different bounds) raises
    [Invalid_argument].

    Domain-safe: cells are [Atomic]-backed, so concurrent domains (the
    parallel exploration workers) tally into the same registry without
    losing increments, and registration/reset/snapshot serialize on a
    mutex. Counters are additionally {e sharded} per domain — concurrent
    increments land on distinct cells instead of one contended cache
    line, and reads merge the shards. Histograms update their fields
    independently, so a snapshot taken {e while} another domain observes
    may see a bucket incremented before the observation count —
    quiescent snapshots (after workers join, which is how every consumer
    in this repo snapshots) are exact. *)

type counter
type gauge
type histogram

val hot : bool ref
(** Gate for {e per-operation} tallies (scheduler steps, memory
    reads/writes, per-terminal depth observations) — paths hot enough
    that even a plain increment costs throughput. Sites guard with
    [if !Obs.Metrics.hot then ...]: one load-and-branch when disabled.
    Enabled by [--metrics] on the CLI and by the bench snapshot
    workloads; coarser sites (per network delivery, per campaign run,
    per exploration) tally unconditionally. Off by default. *)

val counter : string -> counter
val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : string -> gauge
val set : gauge -> int -> unit

val set_max : gauge -> int -> unit
(** High-watermark write: keeps the larger of old and new. *)

val gauge_value : gauge -> int

val histogram : bounds:int array -> string -> histogram
(** [bounds] are strictly increasing bucket upper bounds; an implicit
    overflow bucket catches everything above the last. *)

val observe : histogram -> int -> unit
(** Count [v] in the first bucket with [v <= bound] (else overflow),
    updating the observation count, sum and max. *)

val observations : histogram -> int
val bucket_counts : histogram -> int array

val percentile : histogram -> float -> int option
(** [percentile h p] (for [0 < p <= 100]) reports an upper bound on the
    value at the [p]th percentile: the bucket bound containing the
    rank-[ceil(p/100*n)] observation, or the exact maximum when that
    rank falls in the overflow bucket. [None] on an empty histogram. *)

val reset : unit -> unit
(** Zero every registered cell, keeping the registrations (and the cells
    hot paths already hold) valid. Benchmarks and tests scope a
    measurement with [reset] + {!snapshot}. *)

val snapshot : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with
    name-sorted fields — equal registry contents give byte-equal JSON.
    Histogram objects carry [count]/[sum]/[max]/[p50]/[p90]/[p99] and
    the per-bucket counts. *)

val snapshot_string : unit -> string
