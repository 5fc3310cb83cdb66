(** The alternating-bit protocol over single-writer register fields
    (Section 6, step 3): a reliable FIFO bit channel built from one data
    field written by the sender and one acknowledgement bit written by the
    receiver.

    The sender publishes a datum tagged with its alternating bit only when
    the receiver's acknowledgement equals the tag; the receiver accepts a
    datum exactly when its tag equals its own acknowledgement bit, then
    flips it. The initial data field carries tag 1 while both sides expect
    tag 0, so nothing is accepted before the first real send.

    [chunk] generalizes the paper's one-bit payload to up to [chunk] bits
    per handshake — an ablation of register width against step count. With
    [chunk = 1] the data field is the paper's 2 bits (payload + tag) and a
    whole process register costs [3 (t+1)] bits.

    The channel carries strings as one stream of framed bits, with the
    paper's stuffing: a message of [k] bytes is [16 k + 1] bits, a 0
    continuation flag before each of its [8 k] payload bits (most
    significant bit of each byte first) and a 1 terminator, so an empty
    message is the single bit 1. Chunks may span message boundaries. *)

type field = { bits : int; len : int; tag : int }
(** What the sender publishes: [len] framed bits, between 1 and [chunk],
    the first in bit 0 of [bits]. *)

val initial_field : chunk:int -> field
(** Tag-1 idle value; never accepted. *)

val field_bits : chunk:int -> int
(** Register width of one data field: 2 for [chunk = 1], otherwise
    [bits_for chunk + chunk + 1] (an explicit length is needed once chunks
    can be partial). *)

val measure_field : chunk:int -> field Bits.Width.measure

type sender

val sender : chunk:int -> sender
(** @raise Invalid_argument unless [1 <= chunk < Sys.int_size]. *)

val send_string : sender -> string -> unit
(** Queue a message for framing. *)

val sender_poll : sender -> ack_seen:int -> field option
(** New data field to publish, if the acknowledgement allows it. *)

val sender_idle : sender -> bool

type receiver

val receiver : unit -> receiver

val receiver_poll : receiver -> data_seen:field -> string list
(** Accept at most one chunk; a chunk can complete several framed messages.
    @raise Invalid_argument if a terminator ends a payload that is not
    whole bytes. *)

val receiver_ack : receiver -> int
