(* The dynamic register emulation: quorum read/write over a membership
   that changes underneath it (after Attiya–Chung–Ellen–Kumar–Welch,
   "Simulating a Shared Register in a System that Never Stops
   Changing"). Every message is an envelope carrying the sender's
   membership view; receivers merge, so views gossip along whatever
   traffic the protocol generates. Quorums are evaluated against the
   local view at every step — a merge alone can complete a pending
   operation by shrinking its target. *)

type 'v payload = { ts : int; rank : int; value : 'v }

type 'v body =
  | Join
  | Join_ack of 'v payload array
  | Goodbye
  | Query of { reg : int; op : int }
  | Query_ack of { reg : int; op : int; found : 'v payload }
  | Update of { reg : int; op : int; data : 'v payload }
  | Update_ack of { reg : int; op : int }

type 'v msg = { view : Membership.view; body : 'v body }
type 'v completion = Activated | Wrote | Read_value of 'v
type 'v intent = Write_intent of 'v | Read_intent

(* Reply sets are pid bitsets, not counters: duplicated messages (the
   fault layer's dup action) must not double-count toward a quorum. *)
type 'v phase =
  | Joining of { acks : int }
  | Idle
  | Querying of {
      op : int;
      reg : int;
      replies : int;
      best : 'v payload;
      intent : 'v intent;
    }
  | Updating of {
      op : int;
      reg : int;
      acks : int;
      data : 'v payload;
      return : 'v completion;
    }

type 'v t = {
  n : int;
  me : int;
  slack : int;
  ts_mask : int;  (** -1: unbounded; else [2^b - 1] — the register width *)
  init : int -> 'v;
  initial : Membership.view;
  send : dst:int -> 'v msg -> unit;
  copies : 'v payload array;
  mutable view : Membership.view;
  mutable active : bool;
  mutable next_op : int;
  mutable phase : 'v phase;
  mutable done_ : 'v completion option;
}

let reset t =
  let seeded = Membership.mem t.initial t.me in
  for reg = 0 to Array.length t.copies - 1 do
    t.copies.(reg) <- { ts = 0; rank = 0; value = t.init reg }
  done;
  t.view <- (if seeded then t.initial else Membership.enter t.initial t.me);
  t.active <- seeded;
  t.next_op <- 0;
  t.phase <- (if seeded then Idle else Joining { acks = 0 });
  t.done_ <- None

let create ~n ~me ~slack ?width_bits ~registers ~init ~initial ~send () =
  if me < 0 || me >= n then invalid_arg "Dynreg.create: me out of range";
  if registers < 1 then invalid_arg "Dynreg.create: registers >= 1";
  if slack < 0 then invalid_arg "Dynreg.create: slack >= 0";
  let ts_mask =
    match width_bits with
    | None -> -1
    | Some b ->
        if b < 1 || b > 30 then
          invalid_arg "Dynreg.create: width_bits in 1..30";
        (1 lsl b) - 1
  in
  let t =
    {
      n;
      me;
      slack;
      ts_mask;
      init;
      initial;
      send;
      copies = Array.init registers (fun reg -> { ts = 0; rank = 0; value = init reg });
      view = initial;
      active = false;
      next_op = 0;
      phase = Idle;
      done_ = None;
    }
  in
  reset t;
  t

let view t = t.view
let is_active t = t.active
let quorum t = Membership.quorum ~slack:t.slack t.view

(* (ts, rank) lexicographic — rank (the writer's pid) breaks concurrent
   same-timestamp writes one way for every replica. With a finite
   [ts_mask] the comparison is on wrapped timestamps: once a writer's
   counter laps the width, fresher data loses to stale — the bounded-
   width failure mode E17 maps. *)
let newer (a : _ payload) (b : _ payload) =
  a.ts > b.ts || (a.ts = b.ts && a.rank > b.rank)

let adopt t reg p = if newer p t.copies.(reg) then t.copies.(reg) <- p

let everyone t body =
  let m = { view = t.view; body } in
  for dst = 0 to t.n - 1 do
    t.send ~dst m
  done

let fresh_op t =
  if not t.active then invalid_arg "Dynreg: not active yet";
  (match t.phase with
  | Idle -> ()
  | Joining _ | Querying _ | Updating _ ->
      invalid_arg "Dynreg: operation already outstanding");
  t.next_op <- t.next_op + 1;
  t.next_op

let begin_write t ~reg value =
  let op = fresh_op t in
  t.phase <-
    Querying
      { op; reg; replies = 0; best = t.copies.(reg); intent = Write_intent value };
  everyone t (Query { reg; op })

let begin_read t ~reg =
  let op = fresh_op t in
  t.phase <-
    Querying { op; reg; replies = 0; best = t.copies.(reg); intent = Read_intent }
  ;
  everyone t (Query { reg; op })

let start t = if not t.active then everyone t Join

let farewell t =
  t.view <- Membership.leave t.view t.me;
  t.active <- false;
  t.phase <- Idle;
  everyone t Goodbye

(* Re-evaluate the pending phase against the current view's quorum.
   Called after every received message: acks may have arrived, or the
   merged view may have shrunk the target. Counting every received
   reply — including from members since departed — is deliberate: it is
   exactly the hazard the [slack] widening absorbs, and what a
   zero-slack configuration exposes under churn. *)
(* Phase-completion instants, guarded like the network's: the protocol
   steps are driven per delivery, so a traced churn run shows each
   slot's join/query/update milestones on its own track. *)
let milestone t name args =
  if Obs.Sink.enabled () then
    Obs.Span.instant ~cat:"dynreg" ~track:t.me ~args name

let advance t =
  let q = quorum t in
  match t.phase with
  | Joining { acks } when Membership.popcount acks >= q ->
      t.active <- true;
      (* Gossip the activation: from here on this slot answers queries
         and counts toward other members' quorums. *)
      t.view <- Membership.activate t.view t.me;
      t.phase <- Idle;
      t.done_ <- Some Activated;
      milestone t "activated" [ ("quorum", Obs.Json.Int q) ]
  | Querying { op; reg; replies; best; intent }
    when Membership.popcount replies >= q ->
      let data, return =
        match intent with
        | Read_intent -> (best, Read_value best.value)
        | Write_intent v ->
            ({ ts = (best.ts + 1) land t.ts_mask; rank = t.me; value = v }, Wrote)
      in
      adopt t reg data;
      t.phase <- Updating { op; reg; acks = 0; data; return };
      milestone t "query-quorum"
        [
          ("op", Obs.Json.Int op);
          ("reg", Obs.Json.Int reg);
          ( "intent",
            Obs.Json.Str
              (match intent with
              | Read_intent -> "read"
              | Write_intent _ -> "write") );
        ];
      everyone t (Update { reg; op; data })
  | Updating { op; reg; acks; return; _ } when Membership.popcount acks >= q ->
      t.phase <- Idle;
      t.done_ <- Some return;
      milestone t "op-complete"
        [
          ("op", Obs.Json.Int op);
          ("reg", Obs.Json.Int reg);
          ( "result",
            Obs.Json.Str
              (match return with
              | Activated -> "activated"
              | Wrote -> "wrote"
              | Read_value _ -> "read") );
        ]
  | Joining _ | Idle | Querying _ | Updating _ -> ()

let handle t ~from (msg : _ msg) =
  t.view <- Membership.merge t.view msg.view;
  let reply body = t.send ~dst:from { view = t.view; body } in
  (match msg.body with
  | Join ->
      (* Only activated members vouch for the state a joiner adopts. *)
      if t.active then reply (Join_ack (Array.copy t.copies))
  | Join_ack copies -> (
      match t.phase with
      | Joining j when not t.active ->
          Array.iteri (fun reg p -> adopt t reg p) copies;
          t.phase <- Joining { acks = j.acks lor (1 lsl from) }
      | _ -> ())
  | Goodbye -> ()  (* the envelope's view merge already recorded it *)
  | Query { reg; op } ->
      if t.active then reply (Query_ack { reg; op; found = t.copies.(reg) })
  | Query_ack { reg; op; found } -> (
      match t.phase with
      | Querying c when c.op = op && c.reg = reg ->
          t.phase <-
            Querying
              {
                c with
                replies = c.replies lor (1 lsl from);
                best = (if newer found c.best then found else c.best);
              }
      | _ -> ())
  | Update { reg; op; data } ->
      (* Joiners store and ack too: adopted state propagates through
         them, and a write quorum may lean on nodes still joining. *)
      adopt t reg data;
      reply (Update_ack { reg; op })
  | Update_ack { reg; op } -> (
      match t.phase with
      | Updating u when u.op = op && u.reg = reg ->
          t.phase <- Updating { u with acks = u.acks lor (1 lsl from) }
      | _ -> ()));
  advance t

let take_completion t =
  let r = t.done_ in
  t.done_ <- None;
  r
