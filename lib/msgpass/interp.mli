(** Compiling a shared-memory protocol to a message-passing process: every
    read/write of the {!Sched.Program} DSL becomes an ABD operation
    (Section 6, step 1 — this is "algorithm A'").

    The emulated register space holds the [n] coordination registers as
    cells [0..n-1] and the [n] write-once input registers as cells
    [n..2n-1]; both travel through the same ABD quorums, so the whole
    protocol — inputs included — runs over messages alone. The interpreter
    is transport-agnostic: embed it in a {!Net} node (complete network), the
    {!Router} (t-augmented ring), or the alternating-bit registers
    ({!Pipeline}). *)

type ('v, 'i) cell =
  | Coord of 'v
  | Input of 'i option

type ('v, 'i, 'a) t

val create :
  n:int -> t:int -> me:int -> init:'v -> program:('v, 'i, 'a) Sched.Program.t ->
  ('v, 'i, 'a) t * (int * ('v, 'i) cell Abd.msg) list
(** Returns the interpreter and the messages of its first operation (empty
    only if the program decides without taking a step). *)

val handle :
  ('v, 'i, 'a) t -> from:int -> ('v, 'i) cell Abd.msg ->
  (int * ('v, 'i) cell Abd.msg) list
(** Feed one message; advances the program through any completed operation
    and returns everything to send next. *)

val decision : ('v, 'i, 'a) t -> 'a option
val steps : ('v, 'i, 'a) t -> int
(** Shared-memory operations of the source program executed so far. *)

val node :
  ('v, 'i, 'a) t * (int * ('v, 'i) cell Abd.msg) list ->
  send:(dst:int -> ('v, 'i) cell Abd.msg -> unit) ->
  ('v, 'i) cell Abd.msg Net.node
(** Wrap as a {!Net} node (for the complete-network model), sending
    through [send]. *)
