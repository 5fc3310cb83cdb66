module C = Sched.Program.Compiled

type ('v, 'i) cell = Coord of 'v | Input of 'i option

(* The interpreter executes the step-compiled form of the protocol
   ({!Sched.Program.Compiled}): the suspended program between ABD
   operations is an int program counter, so advancing through a
   completion is opcode dispatch + an array read, not a free-monad
   constructor match. Each interpreter compiles its own code in
   [create] (chaos campaigns build runs on worker domains, and compiled
   code must not cross domains). *)
type ('v, 'i, 'a) t = {
  n : int;
  me : int;
  abd : (('v, 'i) cell, ('v, 'i) cell Abd.msg) Abd.t;
  outbox : (int * ('v, 'i) cell Abd.msg) list ref;  (** newest first *)
  code : ('v, 'i, 'a) C.code;
  mutable pc : int;
  mutable decided : 'a option;
  mutable steps : int;
}

(* Everything ABD sent since the last flush, in send order. *)
let flush t =
  let sends = List.rev !(t.outbox) in
  t.outbox := [];
  sends

(* Begin the ABD operation for the program's next shared-memory step
   (nothing when the program just decided). *)
let rec launch t =
  let op = C.op t.code t.pc in
  if op = C.op_return then t.decided <- Some (C.decision t.code t.pc)
  else if op = C.op_output then begin
    if t.decided = None then t.decided <- Some (C.decision t.code t.pc);
    t.pc <- C.next_unit t.code t.pc;
    launch t
  end
  else if op = C.op_write then
    Abd.begin_write t.abd ~reg:t.me (Coord (C.write_value t.code t.pc))
  else if op = C.op_read then Abd.begin_read t.abd ~reg:(C.reg t.code t.pc)
  else if op = C.op_write_input then
    Abd.begin_write t.abd ~reg:(t.n + t.me)
      (Input (Some (C.input_value t.code t.pc)))
  else (* op_read_input *)
    Abd.begin_read t.abd ~reg:(t.n + C.reg t.code t.pc)

let create ~n ~t ~me ~init ~program =
  let init_cell reg = if reg < n then Coord init else Input None in
  let outbox = ref [] in
  let interp =
    {
      n;
      me;
      abd =
        Abd.create ~n ~t ~registers:(2 * n) ~init:init_cell
          ~encoding:Abd.boxed
          ~send:(fun ~dst m -> outbox := (dst, m) :: !outbox)
          ();
      outbox;
      code = Sched.Program.compile program;
      pc = C.root;
      decided = None;
      steps = 0;
    }
  in
  launch interp;
  (interp, flush interp)

(* The outstanding operation completed: step the program past it. *)
let advance t =
  let continue pc =
    t.steps <- t.steps + 1;
    t.pc <- pc;
    launch t
  in
  let op = C.op t.code t.pc in
  if op = C.op_write || op = C.op_write_input then
    continue (C.next_unit t.code t.pc)
  else
    match Abd.result t.abd with
    | Coord v when op = C.op_read -> continue (C.next_read t.code t.pc v)
    | Input x when op = C.op_read_input ->
        continue (C.next_read_input t.code t.pc x)
    | Coord _ | Input _ ->
        assert false (* completions match the op that launched them *)

(* A decided process keeps serving quorum requests — stopping would count
   against the crash budget of everyone else's liveness. *)
let handle t ~from msg =
  if Abd.handle t.abd ~from msg then advance t;
  flush t

let decision t = t.decided
let steps t = t.steps

let node (t, initial) ~send =
  let out = List.iter (fun (dst, m) -> send ~dst m) in
  let first = ref (Some initial) in
  {
    Net.on_start =
      (fun () ->
        Option.iter out !first;
        first := None);
    on_message = (fun ~from msg -> out (handle t ~from msg));
    on_leave = ignore;
  }
