(** Theorem 1.3 end-to-end (Proposition 6.1): compile any t-resilient
    shared-memory protocol that uses unbounded registers into one whose
    registers hold [3 (t+1)] bits, for [t < n/2].

    The three stages of Section 6, fused into one per-process event loop:

    + every read/write of the source protocol becomes an ABD quorum
      operation over messages ({!Interp} / {!Abd});
    + messages travel the t-augmented ring by flooding ({!Router},
      {!Topology}) — [(t+1)]-connectivity keeps all correct processes
      reachable under at most [t] crashes;
    + each ring link is an alternating-bit channel ({!Alt_bit}) living in
      the writer's register: per process, [t+1] outgoing data fields of
      [2] bits and [t+1] incoming acknowledgement bits — [3 (t+1)] bits
      total, independent of the source protocol's register width.

    Every loop iteration reads the [2 (t+1)] neighbour registers and writes
    its own once. Processes decide via {!Sched.Program.Output} and keep
    serving quorums forever (a halted majority would block survivors), so
    run compiled protocols with [Scheduler.run_random ~until_outputs:true].
    Compiled programs carry per-run mutable state (router, ABD,
    alternating-bit channels) and are marked {!Sched.Program.Stateful}:
    each runs forward once, in constant compiled size. A second start of
    the same code, and {!Sched.Explore}, [Scheduler.branch]
    and [Scheduler.raw_dfs] over it, raise
    [Invalid_argument]; build a fresh program per run. *)

type register = {
  data : Alt_bit.field array;  (** per successor: outgoing channel field *)
  acks : int array;  (** per predecessor: incoming channel acknowledgement *)
}

val register_bits : t:int -> chunk:int -> int
(** [3 (t+1)] when [chunk = 1]. *)

val measure : t:int -> chunk:int -> register Bits.Width.measure
val initial : n:int -> t:int -> chunk:int -> register

val compile :
  n:int ->
  t:int ->
  ?chunk:int ->
  value:'v Wire.codec ->
  input:'i Wire.codec ->
  init:'v ->
  program:('v, 'i, 'a) Sched.Program.t ->
  me:int ->
  unit ->
  (register, 'j, 'a) Sched.Program.t
(** [chunk] (default 1) is the alternating-bit payload width — the paper's
    construction at 1, a width-vs-steps ablation above. *)

val algorithm :
  n:int ->
  t:int ->
  ?chunk:int ->
  value:'v Wire.codec ->
  input:'i Wire.codec ->
  init:'v ->
  source:(pid:int -> input:'i -> ('v, 'i, 'a) Sched.Program.t) ->
  name:string ->
  unit ->
  (register, 'i, 'a) Tasks.Harness.algorithm
(** Harness packaging: fresh [3 (t+1)]-bit memory, one compiled process per
    pid. Check with {!Tasks.Harness.check_random} (resilience <= t) only:
    the exhaustive checks explore, which stateful programs refuse. *)
