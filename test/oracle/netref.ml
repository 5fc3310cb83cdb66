(* The persistent reference network: the pre-arena implementation of
   [Msgpass.Net], kept as a differential oracle. Queues are [Queue.t]s,
   membership is three bool arrays — slow and allocation-happy, but the
   semantics are the ones every published seed was recorded against. It
   ticks no metric counters and emits no trace instants, so driving it
   alongside [Net] perturbs nothing observable. The QCheck differential in
   test_msgpass drives both with identical action sequences (including
   churn) and requires identical observations at every step. *)

type 'm node = {
  on_start : unit -> (int * 'm) list;
  on_message : from:int -> 'm -> (int * 'm) list;
  on_leave : unit -> (int * 'm) list;
}

(* A list node as a [Msgpass.Net] node: each sends list goes out through
   [send] in order, so one node description drives both networks. *)
let lift nodes ~send pid =
  let node = nodes pid in
  let out = List.iter (fun (dst, m) -> send ~dst m) in
  {
    Msgpass.Net.on_start = (fun () -> out (node.on_start ()));
    on_message = (fun ~from m -> out (node.on_message ~from m));
    on_leave = (fun () -> out (node.on_leave ()));
  }

type 'm t = {
  size : int;
  nodes : 'm node array;
  channels : (int * 'm) Queue.t array array;  (** [channels.(src).(dst)] *)
  alive : bool array;
  present : bool array;
  left : bool array;
  mutable delivered : int;
  mutable hop_mask : int;
}

let hop_bucket hops =
  let bounds = Msgpass.Net.hop_bounds in
  let rec go i =
    if i >= Array.length bounds || hops <= bounds.(i) then i else go (i + 1)
  in
  go 0

let enqueue t ~src sends =
  if t.alive.(src) && t.present.(src) then
    List.iter
      (fun (dst, m) ->
        if dst < 0 || dst >= t.size then
          invalid_arg "Netref: destination out of range";
        Queue.add (t.delivered, m) t.channels.(src).(dst))
      sends

let create ?(present = fun _ -> true) ~n ~nodes () =
  let t =
    {
      size = n;
      nodes = Array.init n nodes;
      channels = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
      alive = Array.make n true;
      present = Array.init n present;
      left = Array.make n false;
      delivered = 0;
      hop_mask = 0;
    }
  in
  for pid = 0 to n - 1 do
    if t.present.(pid) then enqueue t ~src:pid (t.nodes.(pid).on_start ())
  done;
  t

let deliverable t =
  let acc = ref [] in
  for src = t.size - 1 downto 0 do
    for dst = t.size - 1 downto 0 do
      if
        t.alive.(dst) && t.present.(dst)
        && not (Queue.is_empty t.channels.(src).(dst))
      then acc := (src, dst) :: !acc
    done
  done;
  !acc

let check_channel t ~src ~dst =
  if src < 0 || src >= t.size || dst < 0 || dst >= t.size then
    invalid_arg "Netref: channel out of range"

let pending t ~src ~dst =
  check_channel t ~src ~dst;
  Queue.length t.channels.(src).(dst)

let deliver t ~src ~dst =
  check_channel t ~src ~dst;
  if
    (not t.alive.(dst)) || (not t.present.(dst))
    || Queue.is_empty t.channels.(src).(dst)
  then false
  else begin
    let stamp, m = Queue.pop t.channels.(src).(dst) in
    let hops = t.delivered - stamp in
    t.delivered <- t.delivered + 1;
    t.hop_mask <- t.hop_mask lor (1 lsl hop_bucket hops);
    enqueue t ~src:dst (t.nodes.(dst).on_message ~from:src m);
    true
  end

let drop t ~src ~dst =
  check_channel t ~src ~dst;
  if Queue.is_empty t.channels.(src).(dst) then false
  else begin
    ignore (Queue.pop t.channels.(src).(dst));
    true
  end

let duplicate t ~src ~dst =
  check_channel t ~src ~dst;
  match Queue.peek_opt t.channels.(src).(dst) with
  | None -> false
  | Some stamped ->
      Queue.add stamped t.channels.(src).(dst);
      true

let defer t ~src ~dst =
  check_channel t ~src ~dst;
  let q = t.channels.(src).(dst) in
  if Queue.length q < 2 then false
  else begin
    Queue.add (Queue.pop q) q;
    true
  end

let crash t pid = t.alive.(pid) <- false
let alive t pid = t.alive.(pid)

let enter t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Netref: pid out of range";
  if t.present.(pid) || t.left.(pid) || not t.alive.(pid) then false
  else begin
    t.present.(pid) <- true;
    enqueue t ~src:pid (t.nodes.(pid).on_start ());
    true
  end

let leave t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Netref: pid out of range";
  if (not t.present.(pid)) || not t.alive.(pid) then false
  else begin
    enqueue t ~src:pid (t.nodes.(pid).on_leave ());
    t.present.(pid) <- false;
    t.left.(pid) <- true;
    true
  end

let is_present t pid =
  if pid < 0 || pid >= t.size then invalid_arg "Netref: pid out of range";
  t.present.(pid)

let hop_mask t = t.hop_mask
