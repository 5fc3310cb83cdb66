(* Register-width telemetry: every write's bit-accounted size lands in
   one process-wide histogram, so the width/step trade-off curve can be
   read off a metrics snapshot. Fine-grained bounds at the small end —
   that is where the paper's registers (1, 3, 6, 3(t+1) bits) live.
   Gated on [Obs.Metrics.hot]: reads and writes are the explorer's inner
   loop, and the gate keeps its untelemetered throughput intact. *)
let width_hist =
  Obs.Metrics.histogram
    ~bounds:[| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 |]
    "sched.register_bits"

let m_writes = Obs.Metrics.counter "sched.writes"
let m_reads = Obs.Metrics.counter "sched.reads"

type ('v, 'i) t = {
  n : int;
  budget : Bits.Width.budget;
  measure : 'v Bits.Width.measure;
  untracked : bool;
      (* Unbounded budget with the canonical zero measure: no width to
         check, no maximum to bump, no histogram to feed. *)
  regs : 'v array;
  inputs : 'i option array;
  mutable max_bits : int;
}

let create ~n ~budget ~measure ~init =
  Bits.Width.check budget (measure init);
  let untracked =
    match budget with
    | Bits.Width.Unbounded ->
        (* [Bits.Width.unbounded] is a top-level constant closure, so
           physical equality identifies the canonical zero measure. *)
        measure == Bits.Width.unbounded
    | Bits.Width.Bounded _ -> false
  in
  {
    n;
    budget;
    measure;
    untracked;
    regs = Array.make n init;
    inputs = Array.make n None;
    max_bits = 0;
  }

let n t = t.n
let budget t = t.budget
let is_untracked t = t.untracked

let write_tracked t pid v =
  let bits = t.measure v in
  Bits.Width.check t.budget bits;
  if bits > t.max_bits then t.max_bits <- bits;
  t.regs.(pid) <- v;
  if !Obs.Metrics.hot then begin
    Obs.Metrics.inc m_writes;
    Obs.Metrics.observe width_hist bits
  end

let[@inline] write t ~pid v =
  if t.untracked && not !Obs.Metrics.hot then t.regs.(pid) <- v
  else write_tracked t pid v

let read t j =
  if !Obs.Metrics.hot then Obs.Metrics.inc m_reads;
  t.regs.(j)

let[@inline] peek t j = t.regs.(j)

(* [j] comes from the scheduler's fused walk (a running pid) — in range
   by construction. *)
let[@inline] peek_trusted t j = Array.unsafe_get t.regs j

(* [poke] pids come from the scheduler's fused walk, which only steps
   pids it started — in range by construction. *)
let[@inline] poke t ~pid v = Array.unsafe_set t.regs pid v

(* [poke_imm]: the caller has checked that both the stored value and
   the value it overwrites are runtime immediates ([Obj.is_int]), so the
   store needs no write barrier — neither the remembered set (nothing
   young is being pointed at) nor the deletion barrier (nothing white is
   being dropped) applies. The [int array] cast is sound for the same
   reason: an array observed to hold an immediate cannot be a flat float
   array. *)
let[@inline] poke_imm t ~pid v =
  Array.unsafe_set (Obj.magic t.regs : int array) pid (Obj.magic v : int)

let write_input t ~pid v =
  (match t.inputs.(pid) with
  | Some _ -> invalid_arg "Memory.write_input: input register is write-once"
  | None -> ());
  t.inputs.(pid) <- Some v

let read_input t j = t.inputs.(j)
let contents t = Array.copy t.regs
let max_bits_written t = t.max_bits

let[@inline] unwrite t ~pid ~old ~old_max_bits =
  t.regs.(pid) <- old;
  t.max_bits <- old_max_bits

let[@inline] unwrite_input t pid = t.inputs.(pid) <- None
