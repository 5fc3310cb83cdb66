(** Minimal JSON values: the wire format of the telemetry layer.

    Everything the observability stack serializes (metric snapshots, JSONL
    trace lines, catapult arrays) is built from this type, and everything
    it reads back ([boundedreg trace summary], the exporter tests) is
    parsed into it. The printer emits canonical one-line JSON with no
    trailing spaces, so byte-identical traces follow from identical
    values. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on missing fields and non-objects. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
(** Constructor projections; [None] on any other constructor. *)

val member_int : string -> t -> int option
val member_str : string -> t -> string option
(** [member] composed with the matching projection — the accessors the
    corpus and witness readers (fleet, trace summary) are built from. *)

val of_string : string -> (t, string) result
(** Full JSON parser (objects, arrays, strings with escapes, numbers,
    literals). [Error] carries a position-tagged message. *)
