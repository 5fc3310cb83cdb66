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
   take part in, and the journal and [raw_dfs] refuse it.

   The undo journal is a flat column arena rather than a list of entry
   records: one slot per {!step}/{!crash} spread over parallel arrays
   (kind, pid, old pc, old write value, old width statistic, old output,
   old trace head). A mark is the arena cursor; undoing rewinds the
   cursor, replaying slots in reverse. A step changes at most: the
   process's pc, its status/output (via [settle]), the trace head, one
   memory cell and the width statistic, and the two step counters — so
   a slot is O(1) to write and to revert, and pushing one allocates
   nothing (growth is amortized doubling). *)

(* Statuses live in an int array ([s_running]/[s_decided]/[s_crashed]),
   not an ['a status array]: the hot loop then never allocates a
   [Decided] block or pays a [caml_modify] write barrier to flip a
   status, and the public {!status} view is reconstructed on demand — a
   decided process's pc still sits on its [Return] slot, so the decision
   value is one payload read away. [running] caches the running-pid
   bitmask ({!running_mask} is a field read); it is maintained by
   [settle], [crash] and [undo_to] and meaningful for [pid < Sys.int_size]
   like the mask itself. *)
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
  mutable journaling : bool;
  (* journal columns; all the same capacity, [j_len] slots live *)
  mutable j_kind : int array;
  mutable j_pid : int array;
  mutable j_pc : int array;
  mutable j_bits : int array;
  mutable j_val : 'v array;
  mutable j_events : 'v Trace.event list array;
  mutable j_len : int;
}

let s_running = 0
let s_decided = 1
let s_crashed = 2

(* Journal slot kinds, in the low bits of [j_kind]. [k_decided_bit] is
   ORed in when the step's [settle] announced the process's decision
   (outputs transition once, [-1] to a payload pc, so undoing such a step
   just resets the slot's pid to [-1] — no old-output column needed).
   The trace-head column [j_events] is only written and restored when
   [record_trace] is on: an untraced run's event list is always [], and
   skipping the store also skips its write barrier in the hot loop. *)
let k_read = 0
let k_write = 1
let k_write_input = 2
let k_read_input = 3
let k_crash = 4
let k_base_mask = 7
let k_decided_bit = 8

let m_steps = Obs.Metrics.counter "sched.steps"
let m_crashes = Obs.Metrics.counter "sched.crashes"
let m_decides = Obs.Metrics.counter "sched.decides"

(* Per-operation timeline events, one track per pid. Values are
   polymorphic and stay out of the trace; Sched.Trace still carries them
   for callers that record it. Gated on the sink so the disabled cost is
   the one branch in [record]. *)
let emit_op pid (op : _ Trace.op) =
  let name, args =
    match op with
    | Trace.Write _ -> ("write", [])
    | Trace.Read (j, _) -> ("read", [ ("reg", Obs.Json.Int j) ])
    | Trace.Write_input -> ("write_input", [])
    | Trace.Read_input j -> ("read_input", [ ("reg", Obs.Json.Int j) ])
    | Trace.Crash -> ("crash", [])
    | Trace.Decide -> ("decide", [])
  in
  Obs.Span.instant ~cat:"sched" ~track:pid ~args name

let record t pid op =
  if t.record_trace then t.events <- { Trace.pid; op } :: t.events;
  if Obs.Sink.enabled () then emit_op pid op

(* [Write]/[Read] ops carry values, so building one allocates. The
   exhaustive explorer runs with tracing and the sink both off and takes
   these paths hundreds of thousands of times per run — the op is only
   constructed once a consumer exists ([!Obs.Sink.active] is the
   call-free spelling of [Sink.enabled ()]). *)
let record_write t pid v =
  if t.record_trace || !Obs.Sink.active then record t pid (Trace.Write v)

let record_read t pid j v =
  if t.record_trace || !Obs.Sink.active then record t pid (Trace.Read (j, v))

(* [Return] and [Output] heads need no memory step: deciding is local.
   When the settled step is journaled (its slot is [j_len - 1] — [step]
   pushes the slot before settling), a [None -> Some] output transition
   marks that slot with [k_decided_bit] so undo can reset the output. *)
let mark_decided t =
  if t.journaling then begin
    let l = t.j_len - 1 in
    t.j_kind.(l) <- t.j_kind.(l) lor k_decided_bit
  end

let rec settle t pid =
  let code = t.code.(pid) in
  let pc = t.pcs.(pid) in
  let op = C.op code pc in
  if op = C.op_return then begin
    t.status.(pid) <- s_decided;
    t.running <- t.running land lnot (1 lsl pid);
    if t.out_pcs.(pid) < 0 then begin
      t.out_pcs.(pid) <- pc;
      mark_decided t
    end;
    if !Obs.Metrics.hot then Obs.Metrics.inc m_decides;
    if t.record_trace || !Obs.Sink.active then record t pid Trace.Decide
  end
  else if op = C.op_output then begin
    if t.out_pcs.(pid) < 0 then begin
      t.out_pcs.(pid) <- pc;
      mark_decided t;
      if !Obs.Metrics.hot then Obs.Metrics.inc m_decides;
      if t.record_trace || !Obs.Sink.active then record t pid Trace.Decide
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
      journaling = false;
      j_kind = [||];
      j_pid = [||];
      j_pc = [||];
      j_bits = [||];
      j_val = [||];
      j_events = [||];
      j_len = 0;
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

(* Grow every journal column together. The value column needs a fill
   element of type ['v]; any live register supplies one ([pid] indexes a
   process that is mid-step, so the memory is nonempty). *)
let grow_journal t pid =
  let cap = Array.length t.j_kind in
  let cap' = if cap = 0 then 256 else 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.j_kind <- extend t.j_kind 0;
  t.j_pid <- extend t.j_pid 0;
  t.j_pc <- extend t.j_pc 0;
  t.j_bits <- extend t.j_bits 0;
  t.j_val <- extend t.j_val (Memory.peek t.mem pid);
  t.j_events <- extend t.j_events []

let step t pid =
  if t.status.(pid) <> s_running then
    invalid_arg (Printf.sprintf "Scheduler.step: process %d halted" pid);
  let code = t.code.(pid) in
  let pc = t.pcs.(pid) in
  let op = C.op code pc in
  let journaling = t.journaling in
  let l = t.j_len in
  (* Journal-column writes at [l] use unsafe indexing: the grow check
     just above guarantees [l < capacity], and every column shares that
     capacity. [pid] was bounds-checked by the status guard. *)
  if journaling then begin
    if l = Array.length t.j_kind then grow_journal t pid;
    Array.unsafe_set t.j_pid l pid;
    Array.unsafe_set t.j_pc l pc;
    if t.record_trace then t.j_events.(l) <- t.events;
    t.j_len <- l + 1
  end;
  if op = C.op_write then begin
    if journaling then begin
      Array.unsafe_set t.j_kind l k_write;
      t.j_val.(l) <- Memory.peek t.mem pid;
      Array.unsafe_set t.j_bits l (Memory.max_bits_written t.mem)
    end;
    let v = C.write_value code pc in
    Memory.write t.mem ~pid v;
    record_write t pid v;
    t.pcs.(pid) <- C.next_unit code pc
  end
  else if op = C.op_read then begin
    if journaling then Array.unsafe_set t.j_kind l k_read;
    let j = C.reg code pc in
    let v = Memory.read t.mem j in
    record_read t pid j v;
    t.pcs.(pid) <- C.next_read code pc v
  end
  else if op = C.op_write_input then begin
    if journaling then Array.unsafe_set t.j_kind l k_write_input;
    Memory.write_input t.mem ~pid (C.input_value code pc);
    record t pid Trace.Write_input;
    t.pcs.(pid) <- C.next_unit code pc
  end
  else if op = C.op_read_input then begin
    if journaling then Array.unsafe_set t.j_kind l k_read_input;
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
  if t.journaling then begin
    let l = t.j_len in
    if l = Array.length t.j_kind then grow_journal t pid;
    t.j_kind.(l) <- k_crash;
    t.j_pid.(l) <- pid;
    if t.record_trace then t.j_events.(l) <- t.events;
    t.j_len <- l + 1
  end;
  t.status.(pid) <- s_crashed;
  t.running <- t.running land lnot (1 lsl pid);
  if !Obs.Metrics.hot then Obs.Metrics.inc m_crashes;
  record t pid Trace.Crash

(* {2 Undo journal} *)

type journal_mark = int

(* Stateful code runs forward once: undo and the fused walk would both
   re-enter positions whose continuations have moved on. *)
let forward_only t what =
  if Array.exists C.stateful t.code then
    invalid_arg (Printf.sprintf "Scheduler.%s: stateful program" what)

let enable_journal t =
  forward_only t "enable_journal";
  t.journaling <- true

let journal_mark t = t.j_len

let undo_to t m =
  if m > t.j_len || m < 0 then
    invalid_arg "Scheduler.undo_to: mark is not in the journal";
  (* Unsafe journal-column reads: [l < j_len <= capacity] throughout. *)
  while t.j_len > m do
    let l = t.j_len - 1 in
    t.j_len <- l;
    let pid = Array.unsafe_get t.j_pid l in
    let kind = Array.unsafe_get t.j_kind l in
    let base = kind land k_base_mask in
    (* The status before any journaled step or crash is [s_running]. *)
    if base = k_crash then begin
      t.status.(pid) <- s_running;
      t.running <- t.running lor (1 lsl pid);
      if t.record_trace then t.events <- t.j_events.(l)
    end
    else begin
      t.pcs.(pid) <- Array.unsafe_get t.j_pc l;
      t.status.(pid) <- s_running;
      t.running <- t.running lor (1 lsl pid);
      (* Outputs transition once ([-1] -> a payload pc), so the decided
         bit is a full inverse: the pre-step output was necessarily
         unset. *)
      if kind land k_decided_bit <> 0 then t.out_pcs.(pid) <- -1;
      if t.record_trace then t.events <- t.j_events.(l);
      t.step_counts.(pid) <- t.step_counts.(pid) - 1;
      t.total_steps <- t.total_steps - 1;
      if base = k_write then
        Memory.unwrite t.mem ~pid ~old:(t.j_val.(l))
          ~old_max_bits:(Array.unsafe_get t.j_bits l)
      else if base = k_write_input then Memory.unwrite_input t.mem pid
    end
  done

(* {2 Fused raw exploration}

   The explorer's raw mode (no dedup, no POR, no budget, no trace, no
   crash budget left) is a pure depth-first product walk: step, recurse,
   undo. Driving it through {!step}/{!undo_to} pays the journal arena a
   full slot of stores and loads per edge, plus cross-module calls, for
   undo state that is only ever consumed by the matching undo one frame
   up. [raw_dfs] fuses the walk: each frame keeps the undo data (old pc,
   overwritten register value, width statistic, output transition) in
   locals on the OCaml stack and reverts in place, so an edge touches no
   journal at all. Journaling is suspended for the duration (the walk
   pushes nothing, and [settle]'s decided-bit marking must not touch a
   caller's older slots); any enclosing journal (e.g. a replayed parallel
   prefix) is untouched and still undoable afterwards, because the walk
   restores the state exactly.

   Observable behavior matches the journaled walk: same visit order,
   same counters and metrics, same sink events. Requires an untraced
   state ([record_trace = false]) — the caller gates on
   {!recording_trace}. *)

let raw_dfs t ~depth ~max_depth ~visit ~on_truncated =
  if t.record_trace then invalid_arg "Scheduler.raw_dfs: state records traces";
  forward_only t "raw_dfs";
  let terminals = ref 0 and truncated = ref 0 in
  let peak = ref depth in
  let n = Array.length t.status in
  (* Metrics/sink gates are snapshotted once per walk (the journaled path
     polls them per step): a walk is one uninterrupted call, and nothing
     in this codebase toggles either mid-exploration. *)
  let hot = !Obs.Metrics.hot in
  let sink = !Obs.Sink.active in
  (* Untracked memory with metrics cold: writes go through
     {!Memory.poke} — the [is_untracked]/hot test is paid once here
     instead of on every edge inside {!Memory.write}. *)
  let fast = Memory.is_untracked t.mem && not hot in
  (* The arrays below are immutable fields of [t] (only the journal
     columns are ever replaced, and the walk does not touch them):
     hoisting them drops a dependent field load from every access in
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
     (including metrics and sink events), minus the journal pushes. *)
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
      if sink then record t p (Trace.Write v);
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
      if sink then record t p (Trace.Read (j, v));
      let nx = C.next_read code pc v in
      Array.unsafe_set pcs p nx;
      let acc = descend code nx p depth acc in
      Array.unsafe_set pcs p pc;
      unstep p acc
    end
    else if op = C.op_write_input then begin
      Memory.write_input mem ~pid:p (C.input_value code pc);
      if sink then record t p Trace.Write_input;
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
      if sink then record t p (Trace.Read_input j);
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
     settle the decision, recurse, revert. [settle] with journaling
     suspended touches exactly: status, the running mask, outputs (once,
     unset -> a payload pc), pc (over Output heads — covered by the
     caller's pc restore), and metrics/sink. *)
  and settled opn pc p depth acc =
    let had_output = Array.unsafe_get out_pcs p >= 0 in
    (* The landing head is a plain [Return] on every final edge of a
       non-[Output] protocol; with telemetry cold its settle is three
       stores, inlined here along with [go] on the already-known mask,
       and the undo is unconditional (the status certainly flipped).
       [Output] chains and live telemetry take the general [settle]
       (journaling is off, so [mark_decided] is inert either way). *)
    if opn = C.op_return && (not hot) && not sink then begin
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
  let journaling = t.journaling in
  t.journaling <- false;
  let nodes =
    Fun.protect
      ~finally:(fun () -> t.journaling <- journaling)
      (fun () -> go depth 0)
  in
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
