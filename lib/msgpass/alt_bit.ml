type field = { bits : int; len : int; tag : int }

let initial_field ~chunk = { bits = 0; len = min chunk 1; tag = 1 }

let field_bits ~chunk =
  if chunk < 1 then invalid_arg "Alt_bit.field_bits: chunk >= 1";
  if chunk = 1 then 2 else Bits.Width.bits_for chunk + chunk + 1

(* The measure charges the full chunk width regardless of how many payload
   bits a partial chunk carries: registers are fixed-size. *)
let measure_field ~chunk { len; _ } =
  if len < 1 || len > chunk then
    invalid_arg "Alt_bit.measure_field: payload size";
  field_bits ~chunk

(* Bit [p] of [m]'s frame: a 0 continuation flag before every payload bit
   (most significant bit of each byte first), then a 1 terminator. *)
let terminator m = 16 * String.length m

let frame_bit m p =
  if p = terminator m then 1
  else if p land 1 = 0 then 0
  else
    let byte = Char.code (String.unsafe_get m (p lsr 4)) in
    (byte lsr (7 - ((p lsr 1) land 7))) land 1

type sender = {
  chunk : int;
  queue : string Queue.t;
  mutable pos : int;  (** next frame bit of the head message *)
  mutable tag : int;  (** tag of the next chunk to publish *)
  mutable published : bool;  (** current tag on the wire, unacknowledged *)
}

let sender ~chunk =
  if chunk < 1 || chunk >= Sys.int_size then
    invalid_arg "Alt_bit.sender: 1 <= chunk < Sys.int_size";
  { chunk; queue = Queue.create (); pos = 0; tag = 0; published = false }

let send_string s msg = Queue.add msg s.queue

let sender_poll s ~ack_seen =
  if s.published then begin
    (* The receiver flipped its bit: the published chunk was accepted. *)
    if ack_seen = 1 - s.tag then begin
      s.published <- false;
      s.tag <- 1 - s.tag
    end;
    None
  end
  else if (not (Queue.is_empty s.queue)) && ack_seen = s.tag then begin
    let bits = ref 0 and len = ref 0 in
    while !len < s.chunk && not (Queue.is_empty s.queue) do
      let m = Queue.peek s.queue in
      bits := !bits lor (frame_bit m s.pos lsl !len);
      incr len;
      if s.pos = terminator m then begin
        ignore (Queue.pop s.queue);
        s.pos <- 0
      end
      else s.pos <- s.pos + 1
    done;
    s.published <- true;
    Some { bits = !bits; len = !len; tag = s.tag }
  end
  else None

let sender_idle s = Queue.is_empty s.queue && not s.published

type receiver = {
  mutable expect : int;
  mutable flagged : bool;  (** a 0 flag arrived: a payload bit follows *)
  mutable nbits : int;  (** payload bits of the current message *)
  mutable byte : int;  (** payload bits of its unfinished byte *)
  buf : Buffer.t;  (** its whole bytes *)
}

let receiver () =
  { expect = 0; flagged = false; nbits = 0; byte = 0; buf = Buffer.create 64 }

(* Feed bits [i..len-1] of a chunk, returning the messages they end. *)
let rec accept r bits len i =
  if i = len then []
  else
    let b = (bits lsr i) land 1 in
    if r.flagged then begin
      r.flagged <- false;
      r.byte <- (r.byte lsl 1) lor b;
      r.nbits <- r.nbits + 1;
      if r.nbits land 7 = 0 then begin
        Buffer.add_char r.buf (Char.unsafe_chr r.byte);
        r.byte <- 0
      end;
      accept r bits len (i + 1)
    end
    else if b = 0 then begin
      r.flagged <- true;
      accept r bits len (i + 1)
    end
    else begin
      let whole = r.nbits land 7 = 0 in
      let m = Buffer.contents r.buf in
      Buffer.clear r.buf;
      r.nbits <- 0;
      r.byte <- 0;
      if not whole then
        invalid_arg "Alt_bit.receiver_poll: payload not whole bytes";
      m :: accept r bits len (i + 1)
    end

let receiver_poll r ~data_seen:{ bits; len; tag } =
  if tag = r.expect then begin
    r.expect <- 1 - r.expect;
    accept r bits len 0
  end
  else []

let receiver_ack r = r.expect
