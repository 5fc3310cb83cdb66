(* Bit-field packing of ABD messages into one immediate int, LSB first:

     tag:2 | reg:10 | op:16 | ts:16 | value:18   (62 bits of OCaml's 63)

   A packed network ['m Net.t] instantiated at ['m = int] stores its
   payloads in plain [int array] rings — no per-message allocation, no
   boxing — which is what makes the pooled chaos fleet's send/deliver
   path allocation-free. The encoders do not range-check (they are the
   hot path); configurations are validated against {!fits_static} up
   front ([Chaos.validate]). Decoding is mask-and-shift; every field of
   every tag is present in every word (unused fields are zero), so
   decoders never branch on tag to find a field. *)

let tag_bits = 2
let reg_bits = 10
let op_bits = 16
let ts_bits = 16
let value_bits = 18
let max_reg = (1 lsl reg_bits) - 1
let max_op = (1 lsl op_bits) - 1
let max_ts = (1 lsl ts_bits) - 1
let max_value = (1 lsl value_bits) - 1

(* Field offsets. *)
let reg_shift = tag_bits
let op_shift = reg_shift + reg_bits
let ts_shift = op_shift + op_bits
let value_shift = ts_shift + ts_bits

let pack ~tag ~reg ~op ~ts ~value =
  tag
  lor (reg lsl reg_shift)
  lor (op lsl op_shift)
  lor (ts lsl ts_shift)
  lor (value lsl value_shift)

let write_req ~reg ~ts ~value ~op =
  pack ~tag:Abd.kind_write_req ~reg ~op ~ts ~value

let write_ack ~reg ~op = pack ~tag:Abd.kind_write_ack ~reg ~op ~ts:0 ~value:0
let read_req ~reg ~op = pack ~tag:Abd.kind_read_req ~reg ~op ~ts:0 ~value:0

let read_reply ~reg ~ts ~value ~op =
  pack ~tag:Abd.kind_read_reply ~reg ~op ~ts ~value

let tag m = m land ((1 lsl tag_bits) - 1)
let reg m = (m lsr reg_shift) land max_reg
let op m = (m lsr op_shift) land max_op
let ts m = (m lsr ts_shift) land max_ts
let value m = (m lsr value_shift) land max_value

(* Whether a static ABD workload's fields all fit: registers are
   [0..registers-1]; timestamps and values never exceed the write count
   (each write bumps the writer's timestamp once and writes value
   [i+1 <= writes]); operation ids never exceed [max_ops] per node. *)
let fits_static ~registers ~writes ~max_ops =
  registers - 1 <= max_reg && writes <= max_ts && writes <= max_value
  && max_ops <= max_op

let encoding : (int, int) Abd.encoding =
  {
    Abd.write_req;
    write_ack;
    read_req;
    read_reply;
    kind = tag;
    reg;
    op;
    ts;
    value;
  }
