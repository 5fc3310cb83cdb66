let m_deliveries = Obs.Metrics.counter "net.deliveries"
let m_drops = Obs.Metrics.counter "net.drops"
let m_duplicates = Obs.Metrics.counter "net.duplicates"
let m_defers = Obs.Metrics.counter "net.defers"
let m_crashes = Obs.Metrics.counter "net.crashes"
let m_enters = Obs.Metrics.counter "net.enters"
let m_leaves = Obs.Metrics.counter "net.leaves"
let m_sends = Obs.Metrics.counter "net.sends"

(* Delivery latency in logical hops: the number of network deliveries
   that happened between a message's enqueue and its own delivery. The
   network has no wall clock — deliveries are its only notion of time —
   so this is the message-passing analogue of the scheduler's logical
   step clock, and it is replay-stable. *)
let hop_bounds = [| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 |]
let h_hop_latency = Obs.Metrics.histogram ~bounds:hop_bounds "net.hop_latency"

(* Index of the hop-latency bucket [hops] lands in (last = overflow) —
   the same bucketing the registry histogram applies, computed locally so
   each network can report which buckets its own deliveries occupied.
   Searched once per hop count up to the last bound: a delivery reads
   the table rather than running a search whose exit depends on data. *)
let hop_table =
  Array.init (hop_bounds.(Array.length hop_bounds - 1) + 1) (fun h ->
      let i = ref 0 in
      while h > hop_bounds.(!i) do incr i done;
      !i)

let hop_bucket hops =
  if hops < Array.length hop_table then hop_table.(hops)
  else Array.length hop_bounds

type 'm node = {
  on_start : unit -> unit;
  on_message : from:int -> 'm -> unit;
  on_leave : unit -> unit;
}

(* The arena layout. Channel [src -> dst] is the flat index
   [src * n + dst] into four parallel arrays: a ring of enqueue stamps
   (preallocated ints), a ring of payloads (created lazily on the
   channel's first send, because ['m] has no manufactured default:
   the first message itself becomes the fill value, and stale slots
   past [len] are simply never read), and the ring's head index and
   length. Rings grow by doubling — capacities stay powers of two so
   wraparound is a mask — and once grown stay grown, which is what the
   chaos pool banks on: after the first run of a pooled fleet the
   send/deliver path allocates nothing.

   Membership is three flat bitsets ([n <= 61] so a set is one
   immediate int): [alive] (not crashed), [present] (entered, not yet
   departed), [left] (departed gracefully). A fourth, per source, marks
   the non-empty channels: [rows.(src)] has bit [dst] set exactly when
   [q_len] of [src -> dst] is positive — set on every push, cleared when
   a delivery or drop empties the ring. The per-event deliverable scan
   walks the set bits of [rows.(src) land alive land present] — no
   list is ever built, and empty channels cost nothing;
   [deliverable_into] writes channel codes into the caller's buffer in
   lexicographic order, exactly the order the old persistent
   implementation enumerated. *)
type 'm t = {
  size : int;
  nodes : 'm node array;
  q_stamp : int array array;  (** per channel: ring of enqueue stamps *)
  q_msg : 'm array array;  (** per channel: ring of payloads; [] until first send *)
  q_head : int array;
  q_len : int array;
  rows : int array;  (** per source: bitset of non-empty channels *)
  mutable alive : int;  (** bitset: not crashed *)
  mutable present : int;  (** bitset: entered and not departed *)
  mutable left : int;  (** bitset: departed gracefully *)
  mutable delivered : int;
  mutable hop_mask : int;  (** bit [b] set: some delivery hit bucket [b] *)
}

let initial_cap = 8
let bit pid = 1 lsl pid
let has m pid = m land (1 lsl pid) <> 0

let grow t ch =
  let old_s = t.q_stamp.(ch) in
  let cap = Array.length old_s in
  let head = t.q_head.(ch) and len = t.q_len.(ch) in
  let ns = Array.make (2 * cap) 0 in
  for i = 0 to len - 1 do
    ns.(i) <- old_s.((head + i) land (cap - 1))
  done;
  t.q_stamp.(ch) <- ns;
  let old_m = t.q_msg.(ch) in
  if Array.length old_m > 0 then begin
    let nm = Array.make (2 * cap) old_m.(0) in
    for i = 0 to len - 1 do
      nm.(i) <- old_m.((head + i) land (cap - 1))
    done;
    t.q_msg.(ch) <- nm
  end;
  t.q_head.(ch) <- 0

let ring_push t src dst stamp m =
  let ch = (src * t.size) + dst in
  if t.q_len.(ch) = Array.length t.q_stamp.(ch) then grow t ch;
  let cap = Array.length t.q_stamp.(ch) in
  if Array.length t.q_msg.(ch) = 0 then t.q_msg.(ch) <- Array.make cap m;
  let tail = (t.q_head.(ch) + t.q_len.(ch)) land (cap - 1) in
  t.q_stamp.(ch).(tail) <- stamp;
  t.q_msg.(ch).(tail) <- m;
  t.q_len.(ch) <- t.q_len.(ch) + 1;
  t.rows.(src) <- t.rows.(src) lor bit dst

(* Pop the head of a non-empty channel; the caller reads it first. *)
let ring_pop t src dst =
  let ch = (src * t.size) + dst in
  t.q_head.(ch) <- (t.q_head.(ch) + 1) land (Array.length t.q_stamp.(ch) - 1);
  let len = t.q_len.(ch) - 1 in
  t.q_len.(ch) <- len;
  t.rows.(src) <- t.rows.(src) land lnot (Bool.to_int (len = 0) lsl dst)

(* A node's own sends, while it is alive and present. Mirrors the old
   [enqueue]: messages from a crashed or absent source vanish silently,
   out-of-range destinations raise. *)
let do_send t src dst m =
  if has t.alive src && has t.present src then begin
    if dst < 0 || dst >= t.size then invalid_arg "Net: destination out of range";
    if !Obs.Metrics.hot then Obs.Metrics.inc m_sends;
    ring_push t src dst t.delivered m
  end

let create ?(present = fun _ -> true) ~n ~nodes () =
  if n <= 0 then invalid_arg "Net: n must be positive";
  if n > 61 then invalid_arg "Net: at most 61 slots (membership bitsets)";
  let dummy =
    { on_start = ignore; on_message = (fun ~from:_ _ -> ()); on_leave = ignore }
  in
  let present_mask = ref 0 in
  for pid = 0 to n - 1 do
    if present pid then present_mask := !present_mask lor bit pid
  done;
  let t =
    {
      size = n;
      nodes = Array.make n dummy;
      q_stamp = Array.init (n * n) (fun _ -> Array.make initial_cap 0);
      q_msg = Array.make (n * n) [||];
      q_head = Array.make (n * n) 0;
      q_len = Array.make (n * n) 0;
      rows = Array.make n 0;
      alive = (1 lsl n) - 1;
      present = !present_mask;
      left = 0;
      delivered = 0;
      hop_mask = 0;
    }
  in
  for pid = 0 to n - 1 do
    t.nodes.(pid) <- nodes ~send:(fun ~dst m -> do_send t pid dst m) pid
  done;
  for pid = 0 to n - 1 do
    if has t.present pid then t.nodes.(pid).on_start ()
  done;
  t

let reset ?(present = fun _ -> true) t =
  let n = t.size in
  Array.fill t.q_head 0 (n * n) 0;
  Array.fill t.q_len 0 (n * n) 0;
  Array.fill t.rows 0 n 0;
  t.alive <- (1 lsl n) - 1;
  t.left <- 0;
  t.delivered <- 0;
  t.hop_mask <- 0;
  let present_mask = ref 0 in
  for pid = 0 to n - 1 do
    if present pid then present_mask := !present_mask lor bit pid
  done;
  t.present <- !present_mask;
  for pid = 0 to n - 1 do
    if has t.present pid then t.nodes.(pid).on_start ()
  done

let n t = t.size

let deliverable_into t buf =
  let n = t.size in
  let live = t.alive land t.present in
  let k = ref 0 in
  for src = 0 to n - 1 do
    let m = ref (t.rows.(src) land live) and ch = ref (src * n) in
    while !m <> 0 do
      buf.(!k) <- !ch;
      k := !k + (!m land 1);
      m := !m lsr 1;
      incr ch
    done
  done;
  !k

let check_channel t ~src ~dst =
  if src < 0 || src >= t.size || dst < 0 || dst >= t.size then
    invalid_arg "Net: channel out of range"

let pending t ~src ~dst =
  check_channel t ~src ~dst;
  t.q_len.((src * t.size) + dst)

(* Fault instants land on the destination's track; the source rides as
   an argument, mirroring [deliver]. *)
let channel_args ~src = [ ("src", Obs.Json.Int src) ]

let deliver t ~src ~dst =
  check_channel t ~src ~dst;
  let ch = (src * t.size) + dst in
  if (not (has t.alive dst)) || (not (has t.present dst)) || t.q_len.(ch) = 0
  then false
  else begin
    let head = t.q_head.(ch) in
    let stamp = t.q_stamp.(ch).(head) in
    let m = t.q_msg.(ch).(head) in
    ring_pop t src dst;
    let hops = t.delivered - stamp in
    t.delivered <- t.delivered + 1;
    t.hop_mask <- t.hop_mask lor (1 lsl hop_bucket hops);
    if !Obs.Metrics.hot then begin
      Obs.Metrics.inc m_deliveries;
      Obs.Metrics.observe h_hop_latency hops
    end;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"net" ~track:dst
        ~args:[ ("src", Obs.Json.Int src); ("hops", Obs.Json.Int hops) ]
        "deliver";
    t.nodes.(dst).on_message ~from:src m;
    true
  end

let drop t ~src ~dst =
  check_channel t ~src ~dst;
  let ch = (src * t.size) + dst in
  if t.q_len.(ch) = 0 then false
  else begin
    ring_pop t src dst;
    if !Obs.Metrics.hot then Obs.Metrics.inc m_drops;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"net" ~track:dst ~args:(channel_args ~src) "drop";
    true
  end

let duplicate t ~src ~dst =
  check_channel t ~src ~dst;
  let ch = (src * t.size) + dst in
  if t.q_len.(ch) = 0 then false
  else begin
    (* The copy keeps the original's stamp: its eventual delivery
       reports the age of the data, not of the duplication. *)
    let head = t.q_head.(ch) in
    ring_push t src dst t.q_stamp.(ch).(head) t.q_msg.(ch).(head);
    if !Obs.Metrics.hot then Obs.Metrics.inc m_duplicates;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"net" ~track:dst ~args:(channel_args ~src)
        "duplicate";
    true
  end

let defer t ~src ~dst =
  check_channel t ~src ~dst;
  let ch = (src * t.size) + dst in
  if t.q_len.(ch) < 2 then false
  else begin
    let head = t.q_head.(ch) in
    let stamp = t.q_stamp.(ch).(head) in
    let m = t.q_msg.(ch).(head) in
    ring_pop t src dst;
    ring_push t src dst stamp m;
    if !Obs.Metrics.hot then Obs.Metrics.inc m_defers;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"net" ~track:dst ~args:(channel_args ~src) "defer";
    true
  end

let crash t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Net: pid out of range";
  if has t.alive pid then begin
    if !Obs.Metrics.hot then Obs.Metrics.inc m_crashes;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"net" ~track:pid "node-crash"
  end;
  t.alive <- t.alive land lnot (bit pid)

let alive t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Net: pid out of range";
  has t.alive pid

(* {2 Dynamic membership}

   [enter] brings a never-before-present slot into the computation: its
   [on_start] runs now (a join protocol's opening broadcast, typically).
   [leave] is the graceful counterpart of [crash]: the node's [on_leave]
   farewell is enqueued while the process is still allowed to send, then
   the slot stops delivering. Both are idempotent no-ops ([false]) when
   ineffective, so fault replay can skip them freely. A departed slot
   never re-enters — fresh arrivals are fresh slots, as in the
   dynamic-membership model (ACEKW).

   The enter/leave counters tick unconditionally (not behind
   [Metrics.hot]): the fleet's health instants report churn activity as
   campaign-relative deltas of these counters, and they fire a handful
   of times per run, not per delivery. *)

let enter t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Net: pid out of range";
  if has t.present pid || has t.left pid || not (has t.alive pid) then false
  else begin
    t.present <- t.present lor bit pid;
    Obs.Metrics.inc m_enters;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"membership" ~track:pid "node-enter";
    t.nodes.(pid).on_start ();
    true
  end

let leave t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Net: pid out of range";
  if (not (has t.present pid)) || not (has t.alive pid) then false
  else begin
    (* Farewell first: the process may still send while departing. *)
    t.nodes.(pid).on_leave ();
    t.present <- t.present land lnot (bit pid);
    t.left <- t.left lor bit pid;
    Obs.Metrics.inc m_leaves;
    if Obs.Sink.enabled () then
      Obs.Span.instant ~cat:"membership" ~track:pid "node-leave";
    true
  end

let is_present t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Net: pid out of range";
  has t.present pid

let hop_mask t = t.hop_mask
