(** Round views and their structural properties (Section 7 preliminaries).

    A view is an n-entry vector whose entries are either [None] (the paper's
    bottom) or a written value. The paper's containment order and the four
    properties distinguishing snapshot from collect outcomes are checked
    here; the experiments use them both as test oracles and as the
    specification the Borowsky–Gafni simulation must meet. *)

type 'v vector = 'v option array

val subseteq : equal:('v -> 'v -> bool) -> 'v vector -> 'v vector -> bool
(** [subseteq v v']: every defined entry of [v] is defined and equal in
    [v']. *)

val validity : equal:('v -> 'v -> bool) -> written:'v array -> 'v vector array -> bool
(** Every defined entry [v_i[j]] equals the value [written.(j)]. *)

val self_containment : 'v vector array -> bool
(** [v_i[i]] is defined for every [i]. *)

val inclusion : equal:('v -> 'v -> bool) -> 'v vector array -> bool
(** Any two views are comparable under containment — snapshots only. *)

val immediacy : equal:('v -> 'v -> bool) -> 'v vector array -> bool
(** If [v_i[j]] is defined then [v_j ⊆ v_i] — immediate snapshots only. *)

val pp :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v vector -> unit
