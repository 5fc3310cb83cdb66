(** Protocols as resumable step machines.

    A protocol for one process is a value of type [('v, 'i, 'a) t]: a free
    monad over the four atomic shared-memory operations of the paper's model
    — write the process's own SWMR register, read any register, write the
    process's write-once input register, read any input register. ['v] is the
    coordination-register value type, ['i] the input-register type, ['a] the
    decision type.

    Because the program is a value suspended between atomic steps, a
    scheduler can interleave processes arbitrarily, replay a schedule
    bit-for-bit, stop a process forever (a crash), or exhaustively enumerate
    interleavings. Protocol code must be pure between steps (all state in the
    continuation), which the combinators below make natural. The one
    exception says so: a program wrapped in {!Stateful} keeps state outside
    the monad and may only run forward, once. *)

type ('v, 'i, 'a) t =
  | Return of 'a  (** decide and halt *)
  | Write of 'v * (unit -> ('v, 'i, 'a) t)  (** write own register R_i *)
  | Read of int * ('v -> ('v, 'i, 'a) t)  (** read register R_j *)
  | Write_input of 'i * (unit -> ('v, 'i, 'a) t)
      (** write own input register I_i (write-once) *)
  | Read_input of int * ('i option -> ('v, 'i, 'a) t)
      (** read input register I_j; [None] when not yet written *)
  | Output of 'a * (unit -> ('v, 'i, 'a) t)
      (** announce the decision but keep running — used by simulations whose
          processes must keep serving others after deciding (deciding and
          halting are distinct events in the model); costs no memory step *)
  | Stateful of ('v, 'i, 'a) t
      (** [p] breaks the purity contract: its continuations mutate state
          outside the monad, so replaying or backtracking it is
          meaningless. Compiled without a memo (see {!Compiled}); the
          scheduler runs such code forward exactly once and rejects
          branching on it and the fused exploration over it. Only
          meaningful at a program's root; a [Stateful] below the root of a
          pure program is rejected when lowering reaches it. *)

val return : 'a -> ('v, 'i, 'a) t
val bind : ('v, 'i, 'a) t -> ('a -> ('v, 'i, 'b) t) -> ('v, 'i, 'b) t
val map : ('a -> 'b) -> ('v, 'i, 'a) t -> ('v, 'i, 'b) t

val write : 'v -> ('v, 'i, unit) t
val read : int -> ('v, 'i, 'v) t
val write_input : 'i -> ('v, 'i, unit) t
val read_input : int -> ('v, 'i, 'i option) t
val output : 'a -> ('v, 'i, 'a) t -> ('v, 'i, 'a) t
(** [output a rest] announces [a] and continues as [rest]. *)

val collect : int -> ('v, 'i, 'v array) t
(** [collect n] reads registers [0..n-1] one by one in index order (a
    non-atomic collect, [n] steps). *)

module Infix : sig
  val ( let* ) : ('v, 'i, 'a) t -> ('a -> ('v, 'i, 'b) t) -> ('v, 'i, 'b) t
  val ( let+ ) : ('v, 'i, 'a) t -> ('a -> 'b) -> ('v, 'i, 'b) t
end

(** {1 Step-compiled programs}

    The free monad above is the authoring surface; {!Compiled} is the
    execution surface. {!compile} lowers a program into flat parallel
    arrays indexed by a program counter — opcode and register operand
    as ints, continuations resolved to slot indices — so a scheduler's
    inner loop dispatches on [op code pc] with {e zero} allocation per
    atomic operation of memoized code. Lowering is lazy and memoized: the
    first execution of a position invokes the free-monad continuation once
    (for reads, once per distinct value read, keyed by structural
    equality — sound because protocol code is pure between steps) and
    every later execution is an array read.

    A compiled program is mutable (it grows as new positions are
    reached). Sharing one across sequential runs, copies, and
    undo-based backtracking is safe and is where the memoization pays;
    sharing one across [Domain]s is not — parallel drivers give each
    worker its own compilation (see {!Par}).

    A {!Stateful} program is lowered without a memo: reads keep only
    their continuation, memory-op heads take turns in two scratch slots
    (each overwrites the one the process is not standing on), and
    [Return]/[Output] heads are appended so decision pcs stay valid —
    {!Compiled.length} stays at most [2 +] the number of decisions
    announced, however long the run. Such code runs forward once:
    {!Compiled.claim} rejects a second run. *)

module Compiled : sig
  type ('v, 'i, 'a) code

  val root : int
  (** The entry program counter of every compiled program. *)

  val length : ('v, 'i, 'a) code -> int
  (** Number of program slots materialized so far. *)

  val stateful : ('v, 'i, 'a) code -> bool
  (** Lowered from a {!Stateful} program. *)

  val claim : ('v, 'i, 'a) code -> unit
  (** Mark the code as handed to a run. No-op on pure code.
      @raise Invalid_argument on stateful code claimed before — it has
      already run and cannot start over. *)

  (** {2 Execution interface (used by {!Scheduler})}

      Opcodes are dense small ints so the dispatch compiles to a jump
      table. *)

  val op_write : int
  val op_read : int
  val op_write_input : int
  val op_read_input : int
  val op_return : int
  val op_output : int

  val op : ('v, 'i, 'a) code -> int -> int
  val reg : ('v, 'i, 'a) code -> int -> int

  val write_value : ('v, 'i, 'a) code -> int -> 'v
  val input_value : ('v, 'i, 'a) code -> int -> 'i
  val decision : ('v, 'i, 'a) code -> int -> 'a

  val decision_some : ('v, 'i, 'a) code -> int -> 'a option
  (** The decision of a return / output slot as its compile-time [Some]
      block — always [Some]; storing it announces the decision without
      allocating per execution. *)

  val next_unit : ('v, 'i, 'a) code -> int -> int
  (** Continuation of a write / write_input / output slot. *)

  val next_read : ('v, 'i, 'a) code -> int -> 'v -> int
  (** Continuation of a read slot for the value just read. *)

  val next_read_input : ('v, 'i, 'a) code -> int -> 'i option -> int
end

val compile : ('v, 'i, 'a) t -> ('v, 'i, 'a) Compiled.code
(** Lower a program; only the root slot is materialized, the rest
    compiles on first execution. *)
