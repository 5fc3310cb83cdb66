(** The shared memory: [n] SWMR coordination registers R_0..R_{n-1} under a
    bit budget, plus [n] write-once input registers I_0..I_{n-1}.

    Every write to a coordination register is measured by the memory's
    {!Bits.Width.measure} and checked against its {!Bits.Width.budget}; the
    memory also records the largest width ever written, so experiments can
    report the bits an algorithm {e actually} used, not just the budget it
    declared. Input registers are outside the budget (the paper's model:
    they carry inputs only and cannot be used for coordination) — writing one
    twice raises. *)

type ('v, 'i) t

val create :
  n:int -> budget:Bits.Width.budget -> measure:'v Bits.Width.measure ->
  init:'v -> ('v, 'i) t
(** Fresh memory with every coordination register holding [init] (the paper
    assumes a known initial value, e.g. 0) and every input register empty.
    [init] is itself width-checked. *)

val n : ('v, 'i) t -> int
val budget : ('v, 'i) t -> Bits.Width.budget

val write : ('v, 'i) t -> pid:int -> 'v -> unit
(** @raise Bits.Width.Overflow when the value exceeds the budget. *)

val read : ('v, 'i) t -> int -> 'v

val peek : ('v, 'i) t -> int -> 'v
(** Like {!read} but without ticking the [sched.reads] metric — for
    explorers and adversaries that inspect memory outside the protocol's
    own step accounting. *)

val write_input : ('v, 'i) t -> pid:int -> 'i -> unit
(** @raise Invalid_argument on a second write to the same input register. *)

val read_input : ('v, 'i) t -> int -> 'i option

val contents : ('v, 'i) t -> 'v array
(** Copy of the coordination registers — the "binary word formed by
    concatenating the register contents" of the Section 4 pigeonhole
    argument, compared structurally. *)

val max_bits_written : ('v, 'i) t -> int
(** Largest measured width over all writes so far (0 if none). *)

(** {1 Untracked fast path}

    A memory is {e untracked} when its budget is [Unbounded] and its
    measure is the canonical {!Bits.Width.unbounded}: every width is 0 by
    construction, so there is no budget to check, no maximum to bump and
    no histogram to feed. Hot loops that have hoisted the test (and the
    metrics gate) may then write through {!poke} — a register store,
    nothing else. Reverting a poke is poking the old value back. *)

val is_untracked : ('v, 'i) t -> bool

val peek_trusted : ('v, 'i) t -> int -> 'v
(** {!peek} without the bounds check — the index must be a valid pid. *)

val poke : ('v, 'i) t -> pid:int -> 'v -> unit
(** {!write} minus width accounting and metrics. Only sound on an
    untracked memory with metrics cold. *)

val poke_imm : ('v, 'i) t -> pid:int -> 'v -> unit
(** {!poke} without the write barrier. Only sound when both the stored
    value and the register's current value are runtime immediates
    ([Obj.is_int]) — the caller must check both. *)

(** {1 Undo support}

    Reverse operations, called by {!Scheduler.branch} and
    {!Scheduler.raw_dfs} when a branch returns. Operands arrive as plain
    arguments (the branching frame keeps them in locals), so reverting
    allocates nothing. Reverting a write restores both the register and
    the max-width statistic, so a backtracking search observes exactly
    the widths of the execution path it is currently on. A read changes nothing to revert. Calls must
    mirror the forward operations in LIFO order. *)

val unwrite : ('v, 'i) t -> pid:int -> old:'v -> old_max_bits:int -> unit
(** Revert one {!write}: restore the register's previous value and the
    max-width statistic. *)

val unwrite_input : ('v, 'i) t -> int -> unit
(** Revert one {!write_input}: the input register becomes empty again. *)
