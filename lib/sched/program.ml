type ('v, 'i, 'a) t =
  | Return of 'a
  | Write of 'v * (unit -> ('v, 'i, 'a) t)
  | Read of int * ('v -> ('v, 'i, 'a) t)
  | Write_input of 'i * (unit -> ('v, 'i, 'a) t)
  | Read_input of int * ('i option -> ('v, 'i, 'a) t)
  | Output of 'a * (unit -> ('v, 'i, 'a) t)
  | Stateful of ('v, 'i, 'a) t

let return x = Return x

let rec bind m f =
  match m with
  | Return x -> f x
  | Write (v, k) -> Write (v, fun () -> bind (k ()) f)
  | Read (j, k) -> Read (j, fun v -> bind (k v) f)
  | Write_input (i, k) -> Write_input (i, fun () -> bind (k ()) f)
  | Read_input (j, k) -> Read_input (j, fun v -> bind (k v) f)
  | Output (_, _) ->
      invalid_arg "Program.bind: cannot bind past an Output decision"
  | Stateful p -> Stateful (bind p f)

let map f m = bind m (fun x -> Return (f x))
let write v = Write (v, fun () -> Return ())
let read j = Read (j, fun v -> Return v)
let write_input i = Write_input (i, fun () -> Return ())
let read_input j = Read_input (j, fun v -> Return v)
let output a rest = Output (a, fun () -> rest)

module Infix = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

open Infix

let collect n =
  let rec loop j acc =
    if j = n then Return (Array.of_list (List.rev acc))
    else
      let* v = read j in
      loop (j + 1) (v :: acc)
  in
  loop 0 []

(* {2 Step-compiled programs} *)

module Compiled = struct
  (* The free monad is the authoring surface; executing it allocates a
     fresh constructor (and runs a closure) per atomic step, every time
     the step runs — and the explorer runs the same program positions
     hundreds of thousands of times. Compilation lowers the monad into
     flat parallel arrays indexed by a program counter: one slot per
     {e reached} program position, opcode and register operand as ints,
     continuations resolved to slot indices. Lowering is lazy and
     memoized: the first execution of a position calls the free monad's
     continuation once and records where it went; every later execution
     is an int array read. Unconditional continuations (write, output)
     resolve to a single [next] index; value-dependent ones (the reads)
     memoize one index per distinct value read, keyed structurally —
     sound because programs are pure between steps, so a continuation
     applied to structurally equal values reaches structurally equal
     programs.

     A [code] value is mutable (it grows as new positions are reached)
     and therefore single-domain: share it freely across sequential
     runs and undo-based backtracking, never across [Domain]s. The one
     exception to purity, [Stateful], opts out of the memo (see
     [place]). *)

  (* Opcodes. [op] is the scheduler's dispatch value; keep them dense. *)
  let op_write = 0
  let op_read = 1
  let op_write_input = 2
  let op_read_input = 3
  let op_return = 4
  let op_output = 5

  type ('v, 'i, 'a) payload =
    | P_read  (** reads carry no payload *)
    | P_write of 'v
    | P_write_input of 'i
    | P_decide of 'a option
        (** return / output; always [Some] — stored boxed so the scheduler
            announces a decision by writing this very block into its
            outputs array, instead of allocating a fresh [Some] on every
            one of the hundreds of thousands of re-executions *)

  (* The suspended continuation of a not-yet-resolved slot. Unit
     continuations are dropped once resolved (the closure and the
     program prefix it captures become garbage); read continuations are
     kept alongside their value memo since new values can always show
     up. *)
  type ('v, 'i, 'a) kont =
    | K_resolved
    | K_unit of (unit -> ('v, 'i, 'a) t)
    | K_read of ('v -> ('v, 'i, 'a) t) * ('v, int) Hashtbl.t
    | K_read_input of
        ('i option -> ('v, 'i, 'a) t) * ('i option, int) Hashtbl.t
    | K_read_once of ('v -> ('v, 'i, 'a) t)  (** stateful: no memo *)
    | K_read_input_once of ('i option -> ('v, 'i, 'a) t)

  type ('v, 'i, 'a) code = {
    mutable ops : int array;  (** opcode per pc *)
    mutable regs : int array;  (** register operand, read by reads only *)
    mutable nexts : int array;  (** resolved continuation pc, or -1 *)
    mutable pays : ('v, 'i, 'a) payload array;
    mutable konts : ('v, 'i, 'a) kont array;
    mutable len : int;
    stateful : bool;
    mutable scratch : int;
        (** stateful: first of the two scratch slots, -1 until reserved *)
    mutable started : bool;  (** stateful: handed to a run already *)
  }

  let length c = c.len

  let grow c =
    let cap = Array.length c.ops in
    let cap' = if cap = 0 then 16 else 2 * cap in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    c.ops <- extend c.ops 0;
    c.regs <- extend c.regs 0;
    c.nexts <- extend c.nexts (-1);
    c.pays <- extend c.pays P_read;
    c.konts <- extend c.konts K_resolved

  let add c ~op ~reg ~pay ~kont =
    if c.len = Array.length c.ops then grow c;
    let pc = c.len in
    c.ops.(pc) <- op;
    c.regs.(pc) <- reg;
    c.nexts.(pc) <- -1;
    c.pays.(pc) <- pay;
    c.konts.(pc) <- kont;
    c.len <- pc + 1;
    pc

  (* Stateful lowering. A [Stateful] program's continuations mutate state
     outside the monad, so no position ever runs twice and a memo would
     only pin one dead slot per step. Its memory-op heads therefore take
     turns in two scratch slots — each overwrites the one the process is
     not standing on ([from]) — while [Return]/[Output] heads are still
     appended, because a scheduler keeps their pcs as the announced
     decisions. A scratch slot is written only where its op reads back:
     a read its register, a write its payload and an unresolved [next]. *)
  let place c ~from ~op ~reg ~pay ~kont =
    if c.stateful then begin
      if c.scratch < 0 then begin
        c.scratch <- c.len;
        for _ = 1 to 2 do
          ignore (add c ~op ~reg:0 ~pay:P_read ~kont:K_resolved : int)
        done
      end;
      let pc = if from = c.scratch then c.scratch + 1 else c.scratch in
      c.ops.(pc) <- op;
      if op = op_read || op = op_read_input then c.regs.(pc) <- reg
      else begin
        c.nexts.(pc) <- -1;
        c.pays.(pc) <- pay
      end;
      c.konts.(pc) <- kont;
      pc
    end
    else add c ~op ~reg ~pay ~kont

  (* Lower the head of a program into a slot, suspending its
     continuation; [from] is the slot the process is leaving. *)
  let rec enter c ~from (p : ('v, 'i, 'a) t) =
    match p with
    | Return a ->
        add c ~op:op_return ~reg:0 ~pay:(P_decide (Some a)) ~kont:K_resolved
    | Write (v, k) ->
        place c ~from ~op:op_write ~reg:0 ~pay:(P_write v) ~kont:(K_unit k)
    | Read (j, k) ->
        place c ~from ~op:op_read ~reg:j ~pay:P_read
          ~kont:
            (if c.stateful then K_read_once k
             else K_read (k, Hashtbl.create 4))
    | Write_input (x, k) ->
        place c ~from ~op:op_write_input ~reg:0 ~pay:(P_write_input x)
          ~kont:(K_unit k)
    | Read_input (j, k) ->
        place c ~from ~op:op_read_input ~reg:j ~pay:P_read
          ~kont:
            (if c.stateful then K_read_input_once k
             else K_read_input (k, Hashtbl.create 4))
    | Output (a, k) ->
        add c ~op:op_output ~reg:0 ~pay:(P_decide (Some a)) ~kont:(K_unit k)
    | Stateful p ->
        if not c.stateful then
          invalid_arg "Program.Compiled: Stateful below a pure program's root";
        enter c ~from p

  let root = 0

  let of_program p =
    let c =
      { ops = [||]; regs = [||]; nexts = [||]; pays = [||]; konts = [||];
        len = 0;
        stateful = (match p with Stateful _ -> true | _ -> false);
        scratch = -1; started = false }
    in
    ignore (enter c ~from:(-1) p : int);
    c

  let stateful c = c.stateful

  let claim c =
    if c.stateful then begin
      if c.started then
        invalid_arg "Program.Compiled.claim: stateful code already ran";
      c.started <- true
    end

  (* {3 Hot accessors — one array read each}

     Unsafe indexing: every pc handed to these comes from [root] or a
     [next_*] result, both of which are [add] return values and therefore
     [< len <= capacity]. The scheduler executes each one several times
     per edge of a walk with hundreds of thousands of edges, so the bounds
     checks are measurable. *)

  let[@inline] op c pc = Array.unsafe_get c.ops pc
  let[@inline] reg c pc = Array.unsafe_get c.regs pc

  let[@inline] write_value c pc =
    match Array.unsafe_get c.pays pc with
    | P_write v -> v
    | P_read | P_write_input _ | P_decide _ -> assert false

  let[@inline] input_value c pc =
    match Array.unsafe_get c.pays pc with
    | P_write_input x -> x
    | P_read | P_write _ | P_decide _ -> assert false

  let[@inline] decision c pc =
    match Array.unsafe_get c.pays pc with
    | P_decide (Some a) -> a
    | P_decide None | P_read | P_write _ | P_write_input _ -> assert false

  (* The decision as its compile-time [Some] block: storing it announces
     the decision without allocating. Never [None] at a decide slot. *)
  let[@inline] decision_some c pc =
    match Array.unsafe_get c.pays pc with
    | P_decide s -> s
    | P_read | P_write _ | P_write_input _ -> assert false

  (* Resolve an unconditional continuation: one int read after the first
     execution; the first execution runs the suspended closure once and
     drops it. The resolved case is split into an [@inline] wrapper so
     the steady state is two loads and a branch at the call site. *)
  let resolve_unit c pc =
    match c.konts.(pc) with
    | K_unit k ->
        let nx = enter c ~from:pc (k ()) in
        c.nexts.(pc) <- nx;
        c.konts.(pc) <- K_resolved;
        nx
    | K_resolved | K_read _ | K_read_input _ | K_read_once _
    | K_read_input_once _ ->
        assert false

  let[@inline] next_unit c pc =
    let nx = Array.unsafe_get c.nexts pc in
    if nx >= 0 then nx else resolve_unit c pc

  (* Resolve a read continuation for the value just read: a memo probe
     (no allocation on the hit path) after the first time that value is
     seen at this position. Stateful reads run once and keep no memo. *)
  let next_read c pc v =
    match c.konts.(pc) with
    | K_read_once k -> enter c ~from:pc (k v)
    | K_read (k, memo) -> (
        match Hashtbl.find memo v with
        | nx -> nx
        | exception Not_found ->
            let nx = enter c ~from:pc (k v) in
            Hashtbl.add memo v nx;
            nx)
    | K_resolved | K_unit _ | K_read_input _ | K_read_input_once _ ->
        assert false

  let next_read_input c pc v =
    match c.konts.(pc) with
    | K_read_input_once k -> enter c ~from:pc (k v)
    | K_read_input (k, memo) -> (
        match Hashtbl.find memo v with
        | nx -> nx
        | exception Not_found ->
            let nx = enter c ~from:pc (k v) in
            Hashtbl.add memo v nx;
            nx)
    | K_resolved | K_unit _ | K_read _ | K_read_once _ -> assert false
end

let compile = Compiled.of_program
