module P = Sched.Program

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
  (* Each link carries [me]'s slot in the neighbour's register, so a read
     indexes the register directly. *)
  let slot_in neighbours = position_of me neighbours in
  let senders =
    List.map
      (fun s ->
        (s, Alt_bit.sender ~chunk, slot_in (Topology.predecessors topology s)))
      succs
  in
  let receivers =
    List.map
      (fun p ->
        (p, Alt_bit.receiver (), slot_in (Topology.successors topology p)))
      preds
  in
  let data =
    Array.of_list (List.map (fun _ -> Alt_bit.initial_field ~chunk) succs)
  in
  let enqueue (succ, envelope) =
    let _, snd_, _ = List.find (fun (s, _, _) -> s = succ) senders in
    Alt_bit.send_string snd_ (env_codec.Wire.to_string envelope)
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
  (* The poll loop, in continuation style: read the predecessors, then the
     successors, publish, [Output] the decision once, repeat. A step
     allocates one node and one closure — no [bind] layer rewraps it. *)
  let announced = ref false in
  let rec read_preds = function
    | [] -> read_succs 0 senders
    | (p, recv, slot) :: rest ->
        P.Read (p, fun reg ->
          List.iter
            (fun str -> handle_incoming (env_codec.Wire.of_string str))
            (Alt_bit.receiver_poll recv ~data_seen:reg.data.(slot));
          read_preds rest)
  and read_succs index = function
    | [] ->
        let ack (_, r, _) = Alt_bit.receiver_ack r in
        let acks = Array.of_list (List.map ack receivers) in
        P.Write ({ data = Array.copy data; acks }, announce)
    | (s, snd_, slot) :: rest ->
        P.Read (s, fun reg ->
          (match Alt_bit.sender_poll snd_ ~ack_seen:reg.acks.(slot) with
          | Some field -> data.(index) <- field
          | None -> ());
          read_succs (index + 1) rest)
  and announce () =
    match Interp.decision interp with
    | Some d when not !announced ->
        announced := true;
        P.Output (d, fun () -> read_preds receivers)
    | Some _ | None -> read_preds receivers
  in
  P.Stateful (read_preds receivers)

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
