type 'a status = Running | Decided of 'a | Crashed

module C = Program.Compiled

(* Execution runs over the step-compiled form ({!Program.Compiled}): a
   process's suspended program is an int program counter into its
   compiled code, so a step of memoized code is opcode dispatch plus a
   couple of array stores — no allocation per atomic op. Stateful code
   runs its continuation on every step: one node and closure each. [start]
   compiles the free-monad programs it is given; [start_compiled] reuses
   code compiled earlier (single-domain reuse only — compiled code
   memoizes in place). Stateful code is claimed by the one run it may
   take part in, and [branch] and [raw_dfs] refuse it.

   Undo is frame-local: [branch] and [raw_dfs] keep what a step
   overwrote (old pc, old register value, old width statistic, whether
   the output was unset, old trace head) in their own locals and revert
   it when the continuation returns. A step changes at most those, the
   process's status and the two step counters, so reverting one is O(1)
   and the state carries no undo log. *)

(* Statuses live in an int array ([s_running]/[s_decided]/[s_crashed]),
   not an ['a status array]: the hot loop then never allocates a
   [Decided] block or pays a [caml_modify] write barrier to flip a
   status, and the public {!status} view is reconstructed on demand — a
   decided process's pc still sits on its [Return] slot, so the decision
   value is one payload read away. [running] caches the running-pid
   bitmask ({!running_mask} is a field read); it is maintained by
   [settle], [crash] and the undo paths, and meaningful for
   [pid < Sys.int_size] like the mask itself. *)
type ('v, 'i, 'a) state = {
  mem : ('v, 'i) Memory.t;
  code : ('v, 'i, 'a) C.code array;  (* per pid; may share elements *)
  pcs : int array;
  status : int array;
  mutable running : int;
  (* Announced decisions, as the pc of the [Return]/[Output] slot whose
     payload holds the value ([-1] = none yet). An int store per decide
     instead of a [Some] store into an ['a option array] — no write
     barrier on the explorer's final edges; the option view is
     reconstructed on demand from the payload's compile-time [Some]
     block, so reading allocates nothing either. *)
  out_pcs : int array;
  step_counts : int array;
  mutable total_steps : int;
  mutable events : 'v Trace.event list;
  record_trace : bool;
}

let s_running = 0
let s_decided = 1
let s_crashed = 2

let m_steps = Obs.Metrics.counter "sched.steps"
let m_crashes = Obs.Metrics.counter "sched.crashes"
let m_decides = Obs.Metrics.counter "sched.decides"

(* The one record of a step: [Sched.Trace], kept only on states started
   with [~record_trace:true]. Telemetry sees steps through the
   [sched.*] counters alone, so a traced run is sized by its spans and
   message events, not by its step count. *)
let record t pid op =
  if t.record_trace then t.events <- { Trace.pid; op } :: t.events

(* [Write]/[Read] ops carry values, so building one allocates. The
   exhaustive explorer runs untraced and takes these paths hundreds of
   thousands of times per run — the op is only constructed for a state
   that records. *)
let record_write t pid v = if t.record_trace then record t pid (Trace.Write v)

let record_read t pid j v =
  if t.record_trace then record t pid (Trace.Read (j, v))

(* [Return] and [Output] heads need no memory step: deciding is local.
   An output transitions once, unset to a payload pc, so undoing a step
   that announced it just unsets it again. *)
let rec settle t pid =
  let code = t.code.(pid) in
  let pc = t.pcs.(pid) in
  let op = C.op code pc in
  if op = C.op_return then begin
    t.status.(pid) <- s_decided;
    t.running <- t.running land lnot (1 lsl pid);
    if t.out_pcs.(pid) < 0 then t.out_pcs.(pid) <- pc;
    if !Obs.Metrics.hot then Obs.Metrics.inc m_decides;
    record t pid Trace.Decide
  end
  else if op = C.op_output then begin
    if t.out_pcs.(pid) < 0 then begin
      t.out_pcs.(pid) <- pc;
      if !Obs.Metrics.hot then Obs.Metrics.inc m_decides;
      record t pid Trace.Decide
    end;
    t.pcs.(pid) <- C.next_unit code pc;
    settle t pid
  end

let start_compiled ?(record_trace = false) ~memory ~programs () =
  let n = Memory.n memory in
  let code = Array.init n programs in
  Array.iter C.claim code;
  let t =
    {
      mem = memory;
      code;
      pcs = Array.make n C.root;
      status = Array.make n s_running;
      running = (if n >= Sys.int_size then -1 else (1 lsl n) - 1);
      out_pcs = Array.make n (-1);
      step_counts = Array.make n 0;
      total_steps = 0;
      events = [];
      record_trace;
    }
  in
  for pid = 0 to n - 1 do
    settle t pid
  done;
  t

let start ?record_trace ~memory ~programs () =
  start_compiled ?record_trace ~memory
    ~programs:(fun pid -> Program.compile (programs pid))
    ()

let memory t = t.mem
let n t = Memory.n t.mem

let step t pid =
  if t.status.(pid) <> s_running then
    invalid_arg (Printf.sprintf "Scheduler.step: process %d halted" pid);
  let code = t.code.(pid) in
  let pc = t.pcs.(pid) in
  let op = C.op code pc in
  if op = C.op_write then begin
    let v = C.write_value code pc in
    Memory.write t.mem ~pid v;
    record_write t pid v;
    t.pcs.(pid) <- C.next_unit code pc
  end
  else if op = C.op_read then begin
    let j = C.reg code pc in
    let v = Memory.read t.mem j in
    record_read t pid j v;
    t.pcs.(pid) <- C.next_read code pc v
  end
  else if op = C.op_write_input then begin
    Memory.write_input t.mem ~pid (C.input_value code pc);
    record t pid Trace.Write_input;
    t.pcs.(pid) <- C.next_unit code pc
  end
  else if op = C.op_read_input then begin
    let j = C.reg code pc in
    let v = Memory.read_input t.mem j in
    record t pid (Trace.Read_input j);
    t.pcs.(pid) <- C.next_read_input code pc v
  end
  else assert false (* Return/Output heads are settled away *);
  t.step_counts.(pid) <- t.step_counts.(pid) + 1;
  t.total_steps <- t.total_steps + 1;
  if !Obs.Metrics.hot then Obs.Metrics.inc m_steps;
  (* [settle] only acts on [Return]/[Output] heads ([op >= op_return]);
     checking here keeps non-final steps call-free. *)
  if C.op code t.pcs.(pid) >= C.op_return then settle t pid

let crash t pid =
  if t.status.(pid) <> s_running then
    invalid_arg (Printf.sprintf "Scheduler.crash: process %d halted" pid);
  t.status.(pid) <- s_crashed;
  t.running <- t.running land lnot (1 lsl pid);
  if !Obs.Metrics.hot then Obs.Metrics.inc m_crashes;
  record t pid Trace.Crash

(* {2 Branching} *)

(* Stateful code runs forward once: undoing a step of it, or walking it,
   would re-enter positions whose continuations have moved on. *)
let refuse_stateful what code =
  if C.stateful code then
    invalid_arg (Printf.sprintf "Scheduler.%s: stateful program" what)

(* Everything [step] may overwrite is saved in this frame before it runs
   and put back after [k] returns. The pre-step status is [s_running]
   ([step] refuses anything else), and the register's old value is only
   restored when the step was a write. *)
let branch t pid k =
  let code = t.code.(pid) in
  refuse_stateful "branch" code;
  let pc = t.pcs.(pid) in
  let events = t.events in
  let had_output = t.out_pcs.(pid) >= 0 in
  let op = C.op code pc in
  let old_v = Memory.peek t.mem pid in
  let old_bits = Memory.max_bits_written t.mem in
  step t pid;
  let r = k () in
  t.pcs.(pid) <- pc;
  t.status.(pid) <- s_running;
  t.running <- t.running lor (1 lsl pid);
  if not had_output then t.out_pcs.(pid) <- -1;
  if t.record_trace then t.events <- events;
  t.step_counts.(pid) <- t.step_counts.(pid) - 1;
  t.total_steps <- t.total_steps - 1;
  if op = C.op_write then
    Memory.unwrite t.mem ~pid ~old:old_v ~old_max_bits:old_bits
  else if op = C.op_write_input then Memory.unwrite_input t.mem pid;
  r

(* A crash runs no continuation, so undoing one is exact for stateful
   code too. *)
let branch_crash t pid k =
  let events = t.events in
  crash t pid;
  let r = k () in
  t.status.(pid) <- s_running;
  t.running <- t.running lor (1 lsl pid);
  if t.record_trace then t.events <- events;
  r

(* {2 Fused raw exploration}

   The explorer's raw mode (no dedup, no POR, no budget, no trace, no
   crash budget left) is a pure depth-first product walk: step, recurse,
   undo. Driving it through [branch] pays a closure, a cross-module call
   and the general step's dispatch per edge. [raw_dfs] fuses the walk:
   each frame keeps the same undo data as [branch] (old pc, overwritten
   register value, width statistic, output transition) in locals on the
   OCaml stack and reverts in place, with the hot cases of [step] and
   [settle] inlined. It restores the state exactly, so it may run below
   any number of enclosing [branch] frames (e.g. a replayed parallel
   prefix).

   Observable behavior matches the general walk: same visit order, same
   counters and metrics. Requires an untraced state
   ([record_trace = false]: the walk does not restore trace heads) — the
   caller gates on {!recording_trace}. *)

let raw_dfs t ~depth ~max_depth ~visit ~on_truncated =
  if t.record_trace then invalid_arg "Scheduler.raw_dfs: state records traces";
  Array.iter (refuse_stateful "raw_dfs") t.code;
  let terminals = ref 0 and truncated = ref 0 in
  let peak = ref depth in
  let n = Array.length t.status in
  (* The metrics gate is snapshotted once per walk ([step] polls it per
     step): a walk is one uninterrupted call, and nothing in this
     codebase toggles it mid-exploration. *)
  let hot = !Obs.Metrics.hot in
  (* Untracked memory with metrics cold: writes go through
     {!Memory.poke} — the [is_untracked]/hot test is paid once here
     instead of on every edge inside {!Memory.write}. *)
  let fast = Memory.is_untracked t.mem && not hot in
  (* The arrays below are immutable fields of [t]: hoisting them drops a dependent field load from every access in
     the loop. [running]/[total_steps] are mutable fields and stay
     behind [t]. *)
  let mem = t.mem in
  let codes = t.code in
  let pcs = t.pcs in
  let status = t.status in
  let out_pcs = t.out_pcs in
  let steps = t.step_counts in
  (* [acc] threads the node count through the recursion as a register
     instead of a heap ref bumped per node. [peak] only needs updating at
     leaves: the deepest node of any walk ends a path. *)
  let rec go depth acc =
    let mask = t.running in
    if mask = 0 then begin
      incr terminals;
      if depth > !peak then peak := depth;
      visit t depth;
      acc + 1
    end
    else if depth >= max_depth then begin
      incr truncated;
      if depth > !peak then peak := depth;
      on_truncated t;
      acc + 1
    end
    else over mask 0 depth (acc + 1)
  and over mask p depth acc =
    if p >= n then acc
    else
      over mask (p + 1) depth
        (if mask land (1 lsl p) <> 0 then child p depth acc else acc)
  (* Execute process [p]'s next op, recurse ([descend]), revert — the
     op's inverse operands live in this frame. Mirrors {!step} exactly
     (including metrics). *)
  and child p depth acc =
    let code = Array.unsafe_get codes p in
    let pc = Array.unsafe_get pcs p in
    let op = C.op code pc in
    Array.unsafe_set steps p (Array.unsafe_get steps p + 1);
    t.total_steps <- t.total_steps + 1;
    if hot then Obs.Metrics.inc m_steps;
    if op = C.op_write then begin
      let old_v = Memory.peek_trusted mem p in
      let v = C.write_value code pc in
      (* When both the new and the overwritten value are immediates the
         store (and its inverse below) can skip the write barrier — on
         int-valued protocols that is every edge of the walk. *)
      let imm =
        fast && Obj.is_int (Obj.repr v) && Obj.is_int (Obj.repr old_v)
      in
      let old_bits = if imm then 0 else Memory.max_bits_written mem in
      if imm then Memory.poke_imm mem ~pid:p v
      else if fast then Memory.poke mem ~pid:p v
      else Memory.write mem ~pid:p v;
      let nx = C.next_unit code pc in
      Array.unsafe_set pcs p nx;
      let acc = descend code nx p depth acc in
      Array.unsafe_set pcs p pc;
      if imm then Memory.poke_imm mem ~pid:p old_v
      else if fast then Memory.poke mem ~pid:p old_v
      else Memory.unwrite mem ~pid:p ~old:old_v ~old_max_bits:old_bits;
      unstep p acc
    end
    else if op = C.op_read then begin
      let j = C.reg code pc in
      let v = Memory.read mem j in
      let nx = C.next_read code pc v in
      Array.unsafe_set pcs p nx;
      let acc = descend code nx p depth acc in
      Array.unsafe_set pcs p pc;
      unstep p acc
    end
    else if op = C.op_write_input then begin
      Memory.write_input mem ~pid:p (C.input_value code pc);
      let nx = C.next_unit code pc in
      Array.unsafe_set pcs p nx;
      let acc = descend code nx p depth acc in
      Array.unsafe_set pcs p pc;
      Memory.unwrite_input mem p;
      unstep p acc
    end
    else begin
      (* op_read_input: reads an input register *)
      let j = C.reg code pc in
      let v = Memory.read_input mem j in
      let nx = C.next_read_input code pc v in
      Array.unsafe_set pcs p nx;
      let acc = descend code nx p depth acc in
      Array.unsafe_set pcs p pc;
      unstep p acc
    end
  (* Revert the step-counter bump; tail position of every child branch. *)
  and unstep p acc =
    Array.unsafe_set steps p (Array.unsafe_get steps p - 1);
    t.total_steps <- t.total_steps - 1;
    acc
  (* Recurse below a step that moved [p]'s pc to [nx]. A landing op
     below [op_return] leaves [p] running, so that child node cannot be
     terminal: only the depth gate applies before fanning out ([go]'s
     mask test is dead there and skipped). Final edges settle first. *)
  and descend code nx p depth acc =
    let opn = C.op code nx in
    if opn >= C.op_return then settled opn nx p depth acc
    else begin
      let d1 = depth + 1 in
      if d1 >= max_depth then begin
        incr truncated;
        if d1 > !peak then peak := d1;
        on_truncated t;
        acc + 1
      end
      else over t.running 0 d1 (acc + 1)
    end
  (* The step landed on the Return/Output head [pc] (opcode [opn]):
     settle the decision, recurse, revert. [settle] touches exactly:
     status, the running mask, outputs (once,
     unset -> a payload pc), pc (over Output heads — covered by the
     caller's pc restore), and metrics. *)
  and settled opn pc p depth acc =
    let had_output = Array.unsafe_get out_pcs p >= 0 in
    (* The landing head is a plain [Return] on every final edge of a
       non-[Output] protocol; with metrics cold its settle is three
       stores, inlined here along with [go] on the already-known mask,
       and the undo is unconditional (the status certainly flipped).
       [Output] chains and hot metrics take the general [settle]. *)
    if opn = C.op_return && not hot then begin
      let mask = t.running land lnot (1 lsl p) in
      Array.unsafe_set status p s_decided;
      t.running <- mask;
      if not had_output then Array.unsafe_set out_pcs p pc;
      let d1 = depth + 1 in
      let acc =
        if mask = 0 then begin
          incr terminals;
          if d1 > !peak then peak := d1;
          visit t d1;
          acc + 1
        end
        else if d1 >= max_depth then begin
          incr truncated;
          if d1 > !peak then peak := d1;
          on_truncated t;
          acc + 1
        end
        else over mask 0 d1 (acc + 1)
      in
      Array.unsafe_set status p s_running;
      t.running <- t.running lor (1 lsl p);
      if not had_output then Array.unsafe_set out_pcs p (-1);
      acc
    end
    else begin
      settle t p;
      let acc = go (depth + 1) acc in
      if Array.unsafe_get status p <> s_running then begin
        Array.unsafe_set status p s_running;
        t.running <- t.running lor (1 lsl p)
      end;
      (* [settle] on a Return/Output head with no prior output always
         announces one, so [not had_output] pins the inverse. *)
      if not had_output then Array.unsafe_set out_pcs p (-1);
      acc
    end
  in
  let nodes = go depth 0 in
  (nodes, !terminals, !truncated, !peak)

let recording_trace t = t.record_trace

(* {2 Inspection} *)

type op_view =
  | Op_write
  | Op_read of int
  | Op_write_input
  | Op_read_input of int
  | Op_halted

let peek t pid =
  if t.status.(pid) <> s_running then Op_halted
  else begin
    let code = t.code.(pid) in
    let pc = t.pcs.(pid) in
    let op = C.op code pc in
    if op = C.op_write then Op_write
    else if op = C.op_read then Op_read (C.reg code pc)
    else if op = C.op_write_input then Op_write_input
    else if op = C.op_read_input then Op_read_input (C.reg code pc)
    else assert false (* settled *)
  end

let is_running t pid = t.status.(pid) = s_running

(* Reconstruct the variant view: a decided process's pc rests on its
   [Return] slot, whose payload is the decision. *)
let status t pid =
  let s = t.status.(pid) in
  if s = s_running then Running
  else if s = s_crashed then Crashed
  else Decided (C.decision t.code.(pid) t.pcs.(pid))

let iter_running t f =
  for pid = 0 to n t - 1 do
    if t.status.(pid) = s_running then f pid
  done

(* Bitmask of running pids: maintained incrementally (one bit flip per
   decide, crash, or undo slot), so the explorer's per-node enabled-set
   query is a field read. *)
let running_mask t = t.running

let running_count t =
  let c = ref 0 in
  for pid = 0 to n t - 1 do
    if t.status.(pid) = s_running then incr c
  done;
  !c

let running t =
  let acc = ref [] in
  for pid = n t - 1 downto 0 do
    if t.status.(pid) = s_running then acc := pid :: !acc
  done;
  !acc

(* The option view of one announced decision: the payload's compile-time
   [Some] block, so no allocation. *)
let output t pid =
  let o = t.out_pcs.(pid) in
  if o < 0 then None else C.decision_some t.code.(pid) o

let decisions t = Array.init (n t) (output t)

(* Every non-crashed process has announced a decision (via [Return] or
   [Output]). *)
let all_output t =
  let ok = ref true in
  for pid = 0 to n t - 1 do
    if t.status.(pid) <> s_crashed && t.out_pcs.(pid) < 0 then ok := false
  done;
  !ok

let crashed t =
  let acc = ref [] in
  for pid = n t - 1 downto 0 do
    if t.status.(pid) = s_crashed then acc := pid :: !acc
  done;
  !acc

let steps_taken t = t.total_steps
let steps_of t pid = t.step_counts.(pid)
let trace t = List.rev t.events

let run_schedule t pids =
  List.iter (fun pid -> if t.status.(pid) = s_running then step t pid) pids

let run_round_robin ?(max_steps = 1_000_000) t =
  let budget = ref max_steps in
  let continue_ = ref true in
  while !continue_ && running_count t > 0 do
    iter_running t (fun pid ->
        if !budget > 0 && is_running t pid then begin
          step t pid;
          decr budget
        end);
    if !budget <= 0 then continue_ := false
  done

(* Allocation-free: a round fires the due crash triggers while counting
   survivors (walking [status], exact for any [n]), then steps the k-th
   running pid for k = [Rng.int rng count] — [Rng.pick]'s draw on the
   ascending [running] list, so every seed keeps its schedule. *)
let run_random ?(max_steps = 1_000_000) ?(crashes = []) ?(until_outputs = false)
    rng t =
  let n = n t in
  let crash_after = Array.make n max_int in
  List.iter (fun (pid, after) -> crash_after.(pid) <- after) crashes;
  let rec nth_running k pid =
    if t.status.(pid) <> s_running then nth_running k (pid + 1)
    else if k > 0 then nth_running (k - 1) (pid + 1)
    else pid
  in
  let rec loop budget =
    let count = ref 0 in
    for pid = 0 to n - 1 do
      if t.status.(pid) = s_running then
        if t.step_counts.(pid) >= crash_after.(pid) then crash t pid
        else incr count
    done;
    if !count > 0 && budget > 0 && not (until_outputs && all_output t) then (
      step t (nth_running (Bits.Rng.int rng !count) 0);
      loop (budget - 1))
  in
  loop max_steps
