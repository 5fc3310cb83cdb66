(** Full-information protocols (Algorithm 3): every round, write everything
    learned so far; the view after round [r] is the vector of round-[r-1]
    views observed.

    Views are the values the unbounded-register iterated models manipulate;
    both {!Iis} and {!Ic} run the same generic program, differing only in
    which vectors the model hands back. Decision maps from final views to
    outputs are supplied by the task being solved. *)

type 'i view =
  | Input of { pid : int; value : 'i }  (** the view "before round 1" *)
  | Observed of { pid : int; seen : 'i view Views.vector }
      (** the view after one more round: what the round returned *)

val pid : 'i view -> int
val equal : ('i -> 'i -> bool) -> 'i view -> 'i view -> bool
val pp : (Format.formatter -> 'i -> unit) -> Format.formatter -> 'i view -> unit

val depth : 'i view -> int
(** Number of rounds baked into the view (0 for [Input]). *)

val protocol :
  rounds:int -> me:int -> input:'i -> decide:('i view -> 'a) ->
  ('i view, 'a) Proto.t
(** [rounds] write/view iterations, then [Decide (decide final_view)]. Runs
    in either model. *)

val replay :
  make:(pid:int -> input:'i -> ('v, 'a) Proto.t) ->
  'i view ->
  ('v, 'a) Proto.t
(** The "w.l.o.g. full information" lemma, executable: the local state of a
    deterministic protocol is a function of the full-information view. [make]
    gives each process's program from its input; [replay] reconstructs,
    recursively, what every observed process wrote in every round, and
    returns the caller's program state after [depth view] rounds.
    @raise Invalid_argument if the view outlives the protocol (a process
    observed after it decided). *)

val unbounded : 'i view Bits.Width.measure
(** Views are the unbounded-register baseline; they are never bit-checked. *)
