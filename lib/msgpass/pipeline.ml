module P = Sched.Program

type register = { data : Alt_bit.field array; acks : int array }

let register_bits ~t ~chunk =
  ((t + 1) * Alt_bit.field_bits ~chunk) + (t + 1)

let measure ~t ~chunk { data; acks } =
  if Array.length data <> t + 1 || Array.length acks <> t + 1 then
    invalid_arg "Pipeline.measure: field counts";
  let bits = ref 0 in
  for i = 0 to t do
    bits := !bits + Alt_bit.measure_field ~chunk data.(i);
    bits := !bits + Bits.Width.uint ~max:1 acks.(i)
  done;
  !bits

let initial ~n ~t ~chunk =
  ignore n;
  {
    data = Array.init (t + 1) (fun _ -> Alt_bit.initial_field ~chunk);
    acks = Array.make (t + 1) 0;
  }

let compile ~n ~t ?(chunk = 1) ~value ~input ~init ~program ~me () =
  let topology = Topology.augmented_ring ~n ~t in
  let succs = Array.of_list (Topology.successors topology me) in
  let preds = Array.of_list (Topology.predecessors topology me) in
  let env_codec =
    Wire.envelope_codec (Wire.abd_msg_codec (Wire.cell_codec value input))
  in
  (* Mutable per-run state, hence the [Stateful] root below. *)
  let router = Router.create ~topology ~me in
  let interp, first = Interp.create ~n ~t ~me ~init ~program in
  (* Each link carries [me]'s slot in the neighbour's register, so a read
     indexes the register directly. *)
  let slot_in neighbours = Option.get (List.find_index (( = ) me) neighbours) in
  (* Indexed by pid; only the successors' senders are ever polled. *)
  let senders = Array.init n (fun _ -> Alt_bit.sender ~chunk) in
  let receivers = Array.map (fun _ -> Alt_bit.receiver ()) preds in
  let data = Array.map (fun _ -> Alt_bit.initial_field ~chunk) succs in
  let enqueue (succ, envelope) =
    Alt_bit.send_string senders.(succ) (env_codec.Wire.to_string envelope)
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
  let incoming str =
    let deliveries, forwards =
      Router.receive router (env_codec.Wire.of_string str)
    in
    List.iter enqueue forwards;
    List.iter
      (fun (e : _ Router.envelope) ->
        dispatch (Interp.handle interp ~from:e.origin e.body))
      deliveries
  in
  dispatch first;
  (* The poll loop is a fixed cycle of nodes built once: read the
     predecessors, then the successors, publish, [Output] the decision
     once, repeat. A publish after a cycle that changed no data field and
     no ack re-issues its previous [Write] node. *)
  let dirty = ref false in
  let poll_pred i p next =
    let recv = receivers.(i) in
    let slot = slot_in (Topology.successors topology p) in
    P.Read (p, fun reg ->
      let ack = Alt_bit.receiver_ack recv in
      let field = reg.data.(slot) in
      List.iter incoming (Alt_bit.receiver_poll recv ~data_seen:field);
      if Alt_bit.receiver_ack recv <> ack then dirty := true;
      next ())
  in
  let poll_succ i s next =
    let snd_ = senders.(s) in
    let slot = slot_in (Topology.predecessors topology s) in
    P.Read (s, fun reg ->
      (match Alt_bit.sender_poll snd_ ~ack_seen:reg.acks.(slot) with
      | Some field -> data.(i) <- field; dirty := true
      | None -> ());
      next ())
  in
  let published = ref None and announced = ref false in
  let rec publish () =
    match !published with
    | Some w when not !dirty -> w
    | Some _ | None ->
        dirty := false;
        let acks = Array.map Alt_bit.receiver_ack receivers in
        let w = P.Write ({ data = Array.copy data; acks }, announce) in
        published := Some w;
        w
  and announce () =
    match Interp.decision interp with
    | Some d when not !announced ->
        announced := true;
        P.Output (d, fun () -> Lazy.force cycle)
    | Some _ | None -> Lazy.force cycle
  and cycle =
    lazy
      (Array.fold_right
         (fun poll next -> let node = poll next in fun () -> node)
         Array.(append (mapi poll_pred preds) (mapi poll_succ succs))
         publish ())
  in
  P.Stateful (Lazy.force cycle)

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
