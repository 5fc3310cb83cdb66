(** ABD messages as single unboxed ints.

    Bit-field layout, LSB first: [tag:2 | reg:10 | op:16 | ts:16 |
    value:18] — 62 bits, inside OCaml's 63-bit immediate range. A network
    instantiated at ['m = int] keeps its payload rings as [int array]s,
    so the packed chaos fleet's send/deliver path allocates nothing.

    Encoders are unchecked (hot path); configurations are validated once
    against {!fits_static} ({!Chaos.validate} refuses static chaos
    configurations that could overflow a field). *)

val max_reg : int
val max_op : int
val max_ts : int
val max_value : int

val fits_static : registers:int -> writes:int -> max_ops:int -> bool
(** Every field of a static ABD workload with these bounds fits the
    layout: registers in [0..max_reg], timestamps and values bounded by
    the write count, per-node operation ids bounded by [max_ops]. *)

val encoding : (int, int) Abd.encoding
(** The packed encoding for {!Abd.create}: int values, int messages.
    Its encoders are unchecked (fields must be in range); its decoders
    are mask-and-shift, and fields a message kind does not carry decode
    as 0. *)
