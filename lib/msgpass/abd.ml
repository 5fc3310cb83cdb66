type 'v msg =
  | Write_req of { reg : int; ts : int; value : 'v; op : int }
  | Write_ack of { reg : int; op : int }
  | Read_req of { reg : int; op : int }
  | Read_reply of { reg : int; ts : int; value : 'v; op : int }

let kind_write_req = 0
let kind_write_ack = 1
let kind_read_req = 2
let kind_read_reply = 3

type ('v, 'm) encoding = {
  write_req : reg:int -> ts:int -> value:'v -> op:int -> 'm;
  write_ack : reg:int -> op:int -> 'm;
  read_req : reg:int -> op:int -> 'm;
  read_reply : reg:int -> ts:int -> value:'v -> op:int -> 'm;
  kind : 'm -> int;
  reg : 'm -> int;
  op : 'm -> int;
  ts : 'm -> int;
  value : 'm -> 'v;
}

let boxed =
  {
    write_req = (fun ~reg ~ts ~value ~op -> Write_req { reg; ts; value; op });
    write_ack = (fun ~reg ~op -> Write_ack { reg; op });
    read_req = (fun ~reg ~op -> Read_req { reg; op });
    read_reply = (fun ~reg ~ts ~value ~op -> Read_reply { reg; ts; value; op });
    kind =
      (function
      | Write_req _ -> kind_write_req
      | Write_ack _ -> kind_write_ack
      | Read_req _ -> kind_read_req
      | Read_reply _ -> kind_read_reply);
    reg =
      (function
      | Write_req { reg; _ }
      | Write_ack { reg; _ }
      | Read_req { reg; _ }
      | Read_reply { reg; _ } ->
          reg);
    op =
      (function
      | Write_req { op; _ }
      | Write_ack { op; _ }
      | Read_req { op; _ }
      | Read_reply { op; _ } ->
          op);
    ts =
      (function
      | Write_req { ts; _ } | Read_reply { ts; _ } -> ts
      | Write_ack _ | Read_req _ -> 0);
    value =
      (function
      | Write_req { value; _ } | Read_reply { value; _ } -> value
      | Write_ack _ | Read_req _ ->
          invalid_arg "Abd: message carries no value");
  }

(* Phase codes. [count] is the ack count while writing or writing back
   and the reply count while collecting; [best_ts]/[value] track the
   running best reply while collecting, and [value] then carries the
   read-back value through the write-back (for a write, the value
   written). *)
let idle = 0
let writing = 1
let collecting = 2
let writing_back = 3

type ('v, 'm) t = {
  n : int;
  quorum : int;
  enc : ('v, 'm) encoding;
  send : dst:int -> 'm -> unit;
  init : int -> 'v;
  copy_ts : int array;  (** per emulated register: timestamp of the copy *)
  copy_val : 'v array;  (** ... and its value *)
  my_ts : int array;  (** per owned register: last timestamp issued *)
  mutable next_op : int;
  mutable phase : int;
  mutable op : int;
  mutable reg : int;
  mutable count : int;
  mutable best_ts : int;
  mutable value : 'v;
}

let create ~n ~t ?quorum ~registers ~init ~encoding ~send () =
  (match quorum with
  | Some _ -> ()
  | None ->
      if t < 0 || 2 * t >= n then invalid_arg "Abd.create: need 0 <= t < n/2");
  if registers < n then invalid_arg "Abd.create: registers >= n";
  {
    n;
    quorum = Option.value quorum ~default:(n - t);
    enc = encoding;
    send;
    init;
    copy_ts = Array.make registers 0;
    copy_val = Array.init registers init;
    my_ts = Array.make registers 0;
    next_op = 0;
    phase = idle;
    op = 0;
    reg = 0;
    count = 0;
    best_ts = 0;
    value = init 0;
  }

let reset t =
  Array.fill t.copy_ts 0 (Array.length t.copy_ts) 0;
  for reg = 0 to Array.length t.copy_val - 1 do
    t.copy_val.(reg) <- t.init reg
  done;
  Array.fill t.my_ts 0 (Array.length t.my_ts) 0;
  t.next_op <- 0;
  t.phase <- idle;
  t.op <- 0;
  t.reg <- 0;
  t.count <- 0;
  t.best_ts <- 0;
  t.value <- t.init 0

let broadcast t m =
  for dst = 0 to t.n - 1 do
    t.send ~dst m
  done

let fresh_op t phase =
  if t.phase <> idle then invalid_arg "Abd: operation already outstanding";
  t.next_op <- t.next_op + 1;
  t.op <- t.next_op;
  t.phase <- phase;
  t.count <- 0

let begin_write t ~reg value =
  fresh_op t writing;
  t.my_ts.(reg) <- t.my_ts.(reg) + 1;
  t.value <- value;
  broadcast t (t.enc.write_req ~reg ~ts:t.my_ts.(reg) ~value ~op:t.op)

let begin_read t ~reg =
  fresh_op t collecting;
  t.reg <- reg;
  broadcast t (t.enc.read_req ~reg ~op:t.op)

let handle t ~from m =
  let e = t.enc in
  let kind = e.kind m in
  if kind = kind_write_req then begin
    let reg = e.reg m in
    let ts = e.ts m in
    if ts > t.copy_ts.(reg) then begin
      t.copy_ts.(reg) <- ts;
      t.copy_val.(reg) <- e.value m
    end;
    t.send ~dst:from (e.write_ack ~reg ~op:(e.op m));
    false
  end
  else if kind = kind_read_req then begin
    let reg = e.reg m in
    t.send ~dst:from
      (e.read_reply ~reg ~ts:t.copy_ts.(reg) ~value:t.copy_val.(reg)
         ~op:(e.op m));
    false
  end
  else if kind = kind_write_ack then
    (t.phase = writing || t.phase = writing_back)
    && t.op = e.op m
    && begin
         t.count <- t.count + 1;
         if t.count >= t.quorum then t.phase <- idle;
         t.phase = idle
       end
  else begin
    (* Read_reply. Among replies of maximal timestamp the latest-arrived
       wins ([>=]): any choice is sound, this one is pinned by the
       published seed artifacts. *)
    if t.phase = collecting && t.op = e.op m && t.reg = e.reg m then begin
      let ts = e.ts m in
      t.count <- t.count + 1;
      if t.count = 1 || ts >= t.best_ts then begin
        t.best_ts <- ts;
        t.value <- e.value m
      end;
      if t.count >= t.quorum then begin
        (* Write back before returning: atomicity. *)
        t.phase <- writing_back;
        t.count <- 0;
        if t.best_ts > t.copy_ts.(t.reg) then begin
          t.copy_ts.(t.reg) <- t.best_ts;
          t.copy_val.(t.reg) <- t.value
        end;
        broadcast t
          (e.write_req ~reg:t.reg ~ts:t.best_ts ~value:t.value ~op:t.op)
      end
    end;
    false
  end

let result t = t.value
let copy t reg = (t.copy_ts.(reg), t.copy_val.(reg))
