(** Coverage-guided chaos fleet: corpus-backed, mutation-driven fault
    campaigns with deduplicated, shrunk, replayable witnesses.

    {!Chaos} answers "does a batch of seeded runs violate atomicity?";
    the fleet answers the stronger campaign question "keep looking, and
    make every find durable". A fleet {!campaign} runs in {e generations}:
    each generation draws a batch of jobs — fresh seeded runs under
    swarm-randomized fault feature mixes, and mutants/crossovers of plans
    already in the {e corpus} — executes the batch (optionally over a
    {!Sched.Par} domain pool), and folds the outcomes in batch-index
    order:

    - every run is condensed to a signature of observable signals
      (terminal-state Zobrist hash of the recorded history, the network's
      hop-latency bucket mask, the verdict class, the event-depth
      bucket); a run that moves any signal is {e interesting} and its
      executed plan joins the corpus, to be mutated in later generations;
    - every NONLINEARIZABLE run is ddmin-shrunk ({!Chaos.shrink}),
      deduplicated by the class of its shrunk plan, and — first
      time only — recorded as a {!witness} (replayed once more for its
      stored deliveries/events/terminal hash) and published to the corpus
      directory as [witness-<class>.json].

    All randomness is derived from [(seed, generation)] splitmix streams
    and all mutation/tallying/shrinking happens on the calling domain in
    a deterministic order, so a fixed seed gives byte-identical reports,
    corpora and witnesses at any [jobs] width. The corpus persists as
    human-editable JSONL; reopening the same directory resumes the
    campaign — corpus ids continue, and witness classes already published
    stay deduplicated across invocations. *)

(** {1 Coverage} *)

type signature = {
  terminal_hash : int;
  hop_mask : int;
  verdict_class : int;
  depth_bucket : int;
}
(** A run's coverage signals, as listed above. *)

val signature_of : Chaos.outcome -> signature

(** {1 Plans} *)

val mutate : Bits.Rng.t -> n:int -> ?churn:bool -> Faults.plan -> Faults.plan
(** {!Faults.mutate} over the list form: compile for [n], mutate,
    decompile — the same child a campaign draws from the same stream.
    @raise Invalid_argument on an operand outside [[0, n)]. *)

(** {1 Corpus} *)

type entry = { id : int; origin : string; plan : Faults.plan }

val corpus_line :
  Buffer.t ->
  id:int ->
  origin:string ->
  signature:signature ->
  cfg:int ->
  Faults.compiled ->
  unit
(** Append a [corpus.jsonl] line (no newline) printed from the opcodes,
    with ["sig"]: the run's {!signature}, then [cfg], the hash of the
    validated configuration it ran under. A campaign resumed under that
    hash reads the signature instead of re-executing the plan; a line
    without ["sig"], or of another hash, is re-executed. Signatures steer
    coverage only, never a verdict, witness or class. *)

val load_corpus : string -> (entry list, string) result
(** Parse [<dir>/corpus.jsonl], oldest first. [Ok []] when the file does
    not exist; [Error] reads [<file>: <problem>] when it cannot be read
    (a directory, say), [<file>:<line>: <problem>] otherwise (a ["sig"]
    that is not an array of five ints among them), the problem
    carrying the column for a JSON syntax error (the corpus is
    human-editable, so failures are loud, not skipped) — except a torn
    append: an unterminated last line that is not JSON is left out,
    counted in [fleet.corpus_torn_lines] and named on stderr. *)

exception Corpus_error of string
(** Raised by {!campaign} when its corpus directory does not load, or
    names a path that is not a directory and cannot be created as one.
    The message names the path and is positioned like {!load_corpus}'s
    errors; a campaign also checks every operand against its
    configuration's [n] and names the offending action:
    [<dir>/corpus.jsonl:<line>: action <k>: channel 0>9 out of range (n = 4)]. *)

(** {1 Witnesses} *)

type witness = {
  class_key : int;  (** the shrunk replay's register and scrubbed reason *)
  origin : string;  (** the job that first found the class *)
  found_gen : int;
  reg : int;
  file : string option;  (** [witness-<class>.json], when a corpus dir is set *)
  mutable plan : Faults.plan;
      (** the smallest shrunk plan seen for this class. Duplicate runs of
          an already-witnessed class — recognized by classing the
          original verdict, before any shrinking — skip ddmin entirely
          unless the run itself has strictly fewer deliveries than this
          plan; a re-shrunk strictly-smaller find replaces the plan (and
          republishes the witness file), so the witness only ever
          improves *)
  mutable plan_key : int;
  mutable deliveries : int;
  mutable events : int;
  mutable terminal_hash : int;
  mutable reason : string;
  mutable shrink_tests : int;  (** replays ddmin spent on the kept plan *)
  mutable duplicates : int;
      (** later violating runs that shrank into this same class *)
}

type replay = {
  witness_plan : Faults.plan;
  config : Chaos.config;
  outcome : Chaos.outcome;  (** fresh replay of the stored plan *)
  stored_terminal_hash : int;
  stored_events : int;
  stored_deliveries : int;
  stored_reason : string;
  bit_for_bit : bool;
      (** the fresh replay still fails and reproduces the stored terminal
          hash, event and delivery counts, and failure reason exactly *)
}

val replay_file : string -> (replay, string) result
(** Load a [witness-<class>.json] file and re-execute its plan against a
    freshly built network of its stored configuration. A path that cannot
    be read (a directory, say) or a hand-edited file gives an [Error]
    naming the file, never an exception: malformed JSON,
    a configuration {!Chaos.validate} rejects, or a plan operand outside
    the configuration's [n] slots. *)

(** {1 Campaigns} *)

type report = {
  seed : int;
  generations : int;  (** generations actually completed *)
  runs : int;
  violations : int;  (** violating runs, including deduplicated ones *)
  witnesses : witness list;  (** distinct classes, discovery order *)
  corpus_size : int;
  corpus_added : int;  (** entries this campaign appended *)
  signals : int;  (** runs that moved some coverage signal *)
  mutant_signals : int;  (** ... of which were mutants or crossovers *)
  cache_lookups : int;
      (** run-cache probes: one per batch job, one per corpus entry
          loaded when resuming over a directory, and one per
          triage's shrunk-plan confirmation replay *)
  cache_hits : int;
      (** probes of content the campaign has run before: a job that
          repeats an earlier job of its batch, or a key the cache
          already holds. The cache holds keys, not outcomes — fresh
          jobs keyed by (seed, rolled profile, crash budget), scripted
          jobs by {!Faults.compiled_hash} of their compiled plan — so a
          repeat within a batch runs once, and a repeat of an earlier
          generation runs again (a run is a pure function of its key).
          Probes and fills happen on the calling domain only, keeping
          reports byte-identical at any [jobs] width. *)
  distinct_terminals : int;
  hop_mask : int;  (** union over all runs *)
  verdict_mask : int;
  max_depth_bucket : int;
  degraded : bool;
      (** a [budget] stopped the campaign before its requested
          [generations] *)
  elapsed : float;  (** wall-clock seconds (not printed by {!pp_report}) *)
}

val campaign :
  ?budget:float ->
  ?generations:int ->
  ?jobs:int ->
  ?batch:int ->
  ?corpus_dir:string ->
  seed:int ->
  Chaos.config ->
  report
(** Run a fleet. [generations] fixes the generation count (fully
    deterministic end to end); [budget] (wall-clock seconds, checked
    between generations like the chaos deadline — overshoot is at most
    one generation) fills a time box instead; given neither, 10
    generations run; given both, the budget can degrade the fixed count.
    [batch] (default 16) is runs per generation; each generation
    re-rolls a random fault feature mix (swarm testing). [jobs]
    (default 1) is the width of the {!Sched.Par.run_units} pool that
    runs a generation's distinct jobs — job planning, coverage, corpus
    growth and shrinking stay on the calling domain in batch order, so
    the report, corpus and witnesses are byte-identical at any width. [corpus_dir] persists the corpus
    ([corpus.jsonl]) and witnesses; omitted, the campaign is in-memory.
    Appends share one channel, opened by the first append (after cutting
    off a torn last line or ending an unterminated one), flushed per line
    so a kill loses at most one line, and closed when the campaign ends.
    The first violating run's flight dump holds this campaign's events;
    it is written as [flight-nonlinearizable.jsonl] in [corpus_dir] when
    one is given, in the current directory otherwise.

    The configuration goes through {!Chaos.validate} first, as in
    {!Chaos.campaign}: warnings print to stderr once, clamps apply.

    @raise Invalid_argument on a configuration {!Chaos.validate} rejects,
    before anything runs.
    @raise Corpus_error when [corpus_dir] holds a corpus that fails to
    parse or names a slot outside the configuration's [n]. *)

val pp_report : Format.formatter -> report -> unit
(** Deliberately excludes [elapsed]: the rendering is byte-deterministic
    for a fixed seed in [generations] mode, at any [jobs] width. *)
