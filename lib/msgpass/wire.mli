(** Minimal self-delimiting serialization for everything the alternating-bit
    layer ships as bits: length-prefixed chunks, plus the envelope / ABD
    message formats parameterized by value codecs. *)

val enc : string list -> string
(** Length-prefixed concatenation; inverse of {!dec}. *)

val dec : string -> string list
(** @raise Invalid_argument on malformed input. *)

type 'v codec = { to_string : 'v -> string; of_string : string -> 'v }

val int_codec : int codec
val pair_codec : 'a codec -> 'b codec -> ('a * 'b) codec
val list_codec : 'a codec -> 'a list codec
val rational_codec : Bits.Rational.t codec

val cell_codec :
  'v codec -> 'i codec -> ('v, 'i) Interp.cell codec

val abd_msg_codec : 'v codec -> 'v Abd.msg codec

val envelope_codec : 'm codec -> 'm Router.envelope codec

module Pack : module type of Pack
(** Fixed-width companion of the string codecs: ABD messages bit-packed
    into immediate ints for the allocation-free fast path (see {!Pack}). *)
