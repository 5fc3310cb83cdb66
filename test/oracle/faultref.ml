(* The random fault driver as it was before its per-event path went
   branch-free, kept as a differential oracle for
   [Msgpass.Faults.run_random]: the deliverable scan stores a channel
   only behind an [if], the frozen-channel filter copies only behind an
   [if], and the network is the persistent [Netref], whose deliveries
   find their hop-latency bucket by searching [Net.hop_bounds]. It
   records the effective actions as a plan. The QCheck differential in
   test_msgpass requires [Faults.run_random] over a [Net] to record the
   same plan and the same [hop_mask] as this driver over a [Netref] for
   the same rng stream and profile. *)

module F = Msgpass.Faults

type 'm t = {
  net : 'm Netref.t;
  size : int;
  mutable recorded : F.action list;  (** newest first *)
  mutable events : int;
  frozen : int array;  (** flat [n*n]: channel thaws at this event index *)
  mutable max_thaw : int;
  drops : int array;  (** flat [n*n]: drops spent per channel *)
  chans : int array;
  chans2 : int array;
  mutable decrees : int;
      (** events at which every candidate was frozen and all were served *)
}

let wrap net =
  let n = net.Netref.size in
  {
    net;
    size = n;
    recorded = [];
    events = 0;
    frozen = Array.make (n * n) 0;
    max_thaw = 0;
    drops = Array.make (n * n) 0;
    chans = Array.make (n * n) 0;
    chans2 = Array.make (n * n) 0;
    decrees = 0;
  }

let plan t = List.rev t.recorded
let decrees t = t.decrees

let apply t act =
  let r = t.net in
  let effective =
    match act with
    | F.Deliver { src; dst } -> Netref.deliver r ~src ~dst
    | F.Drop { src; dst } ->
        Netref.drop r ~src ~dst
        && begin
             let ch = (src * t.size) + dst in
             t.drops.(ch) <- t.drops.(ch) + 1;
             true
           end
    | F.Duplicate { src; dst } -> Netref.duplicate r ~src ~dst
    | F.Defer { src; dst } -> Netref.defer r ~src ~dst
    | F.Crash pid ->
        Netref.alive r pid
        && begin
             Netref.crash r pid;
             true
           end
    | F.Enter pid -> Netref.enter r pid
    | F.Leave pid -> Netref.leave r pid
  in
  if effective then begin
    t.recorded <- act :: t.recorded;
    t.events <- t.events + 1
  end

(* Channels with queued messages and a live, present destination, as
   flat codes in lexicographic order. *)
let deliverable_into t buf =
  let r = t.net and n = t.size in
  let k = ref 0 in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if
        Netref.pending r ~src ~dst > 0
        && Netref.alive r dst && Netref.is_present r dst
      then begin
        buf.(!k) <- (src * n) + dst;
        incr k
      end
    done
  done;
  !k

let channel t ch = { F.src = ch / t.size; dst = ch mod t.size }

let step_random rng (profile : F.profile) t =
  List.iter
    (fun (pid, at) ->
      if t.events >= at && not (Netref.is_present t.net pid) then
        apply t (F.Enter pid))
    profile.enter_at;
  List.iter
    (fun (pid, at) ->
      if t.events >= at && Netref.is_present t.net pid then
        apply t (F.Leave pid))
    profile.leave_at;
  List.iter
    (fun (pid, at) ->
      if t.events >= at && Netref.alive t.net pid then apply t (F.Crash pid))
    profile.crash_at;
  let all = deliverable_into t t.chans in
  if all = 0 then false
  else begin
    let cand, cnt =
      if t.events >= t.max_thaw then (t.chans, all)
      else begin
        let unfrozen = ref 0 in
        for i = 0 to all - 1 do
          if t.frozen.(t.chans.(i)) <= t.events then begin
            t.chans2.(!unfrozen) <- t.chans.(i);
            incr unfrozen
          end
        done;
        if !unfrozen = 0 then begin
          t.decrees <- t.decrees + 1;
          (t.chans, all)
        end
        else (t.chans2, !unfrozen)
      end
    in
    let ci = Bits.Rng.int rng cnt in
    let ch = cand.(ci) in
    let scale = 9007199254740992. in
    let u = float_of_int (Bits.Rng.bits53 rng) in
    let p_drop =
      if t.drops.(ch) < profile.max_channel_drops then profile.drop else 0.
    in
    let c = channel t ch in
    if u < p_drop *. scale then apply t (F.Drop c)
    else if u < (p_drop +. profile.duplicate) *. scale then
      apply t (F.Duplicate c)
    else if
      u < (p_drop +. profile.duplicate +. profile.defer) *. scale
      && Netref.pending t.net ~src:c.src ~dst:c.dst >= 2
    then apply t (F.Defer c)
    else if float_of_int (Bits.Rng.bits53 rng) < profile.delay *. scale then begin
      let thaw = t.events + max 1 profile.delay_span in
      t.frozen.(ch) <- thaw;
      if thaw > t.max_thaw then t.max_thaw <- thaw;
      if cnt = 1 then apply t (F.Deliver c)
      else begin
        let j = Bits.Rng.int rng (cnt - 1) in
        apply t (F.Deliver (channel t cand.(if j >= ci then j + 1 else j)))
      end
    end
    else apply t (F.Deliver c);
    true
  end

let run_random ~rng ~profile ~max_events t =
  let rec loop budget =
    if budget > 0 && step_random rng profile t then loop (budget - 1)
  in
  loop max_events
