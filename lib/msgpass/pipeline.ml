module P = Sched.Program
open P.Infix

type register = { data : Alt_bit.field array; acks : int array }

let register_bits ~t ~chunk =
  ((t + 1) * Alt_bit.field_bits ~chunk) + (t + 1)

let measure ~t ~chunk { data; acks } =
  if Array.length data <> t + 1 || Array.length acks <> t + 1 then
    invalid_arg "Pipeline.measure: field counts";
  Array.fold_left
    (fun acc f -> acc + Alt_bit.measure_field ~chunk f)
    0 data
  + Array.fold_left
      (fun acc b -> acc + Bits.Width.uint ~max:1 b)
      0 acks

let initial ~n ~t ~chunk =
  ignore n;
  {
    data = Array.init (t + 1) (fun _ -> Alt_bit.initial_field ~chunk);
    acks = Array.make (t + 1) 0;
  }

let position_of x lst =
  let rec go i = function
    | [] -> invalid_arg "Pipeline: not a neighbour"
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 lst

let compile ~n ~t ?(chunk = 1) ~value ~input ~init ~program ~me () =
  let topology = Topology.augmented_ring ~n ~t in
  let succs = Topology.successors topology me in
  let preds = Topology.predecessors topology me in
  let env_codec =
    Wire.envelope_codec (Wire.abd_msg_codec (Wire.cell_codec value input))
  in
  (* Mutable per-run state, hence the [Stateful] root below. *)
  let router = Router.create ~topology ~me in
  let interp, first = Interp.create ~n ~t ~me ~init ~program in
  let senders = List.map (fun s -> (s, Alt_bit.sender ~chunk)) succs in
  let receivers = List.map (fun p -> (p, Alt_bit.receiver ())) preds in
  let data =
    Array.of_list (List.map (fun _ -> Alt_bit.initial_field ~chunk) succs)
  in
  let enqueue (succ, envelope) =
    Alt_bit.send_string (List.assoc succ senders)
      (env_codec.Wire.to_string envelope)
  in
  let rec dispatch sends =
    List.iter
      (fun (dest, m) ->
        let locals, outs = Router.send router ~dest m in
        List.iter enqueue outs;
        List.iter
          (fun body -> dispatch (Interp.handle interp ~from:me body))
          locals)
      sends
  in
  let handle_incoming envelope =
    let deliveries, forwards = Router.receive router envelope in
    List.iter enqueue forwards;
    List.iter
      (fun (e : _ Router.envelope) ->
        dispatch (Interp.handle interp ~from:e.origin e.body))
      deliveries
  in
  dispatch first;
  let my_slot_at_pred p = position_of me (Topology.successors topology p) in
  let my_slot_at_succ s = position_of me (Topology.predecessors topology s) in
  let read_pred (p, recv) =
    let* reg = P.read p in
    let field = reg.data.(my_slot_at_pred p) in
    List.iter
      (fun str -> handle_incoming (env_codec.Wire.of_string str))
      (Alt_bit.receiver_poll recv ~data_seen:field);
    P.return ()
  in
  let read_succ index (s, snd_) =
    let* reg = P.read s in
    (match
       Alt_bit.sender_poll snd_ ~ack_seen:reg.acks.(my_slot_at_succ s)
     with
    | Some field -> data.(index) <- field
    | None -> ());
    P.return ()
  in
  let rec read_succs index = function
    | [] -> P.return ()
    | link :: rest ->
        let* () = read_succ index link in
        read_succs (index + 1) rest
  in
  let announced = ref false in
  let rec loop () =
    let* () = P.iter_list read_pred receivers in
    let* () = read_succs 0 senders in
    let reg =
      {
        data = Array.copy data;
        acks =
          Array.of_list
            (List.map (fun (_, r) -> Alt_bit.receiver_ack r) receivers);
      }
    in
    let* () = P.write reg in
    match Interp.decision interp with
    | Some d when not !announced ->
        announced := true;
        P.output d (loop ())
    | Some _ | None -> loop ()
  in
  P.Stateful (loop ())

let algorithm ~n ~t ?(chunk = 1) ~value ~input ~init ~source ~name () =
  {
    Tasks.Harness.name;
    memory =
      (fun () ->
        Sched.Memory.create ~n
          ~budget:(Bits.Width.Bounded (register_bits ~t ~chunk))
          ~measure:(measure ~t ~chunk)
          ~init:(initial ~n ~t ~chunk));
    program =
      (fun ~pid ~input:task_input ->
        compile ~n ~t ~chunk ~value ~input ~init
          ~program:(source ~pid ~input:task_input)
          ~me:pid ());
  }
