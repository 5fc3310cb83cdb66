(** The t-augmented ring (Figure 3) and its connectivity.

    Nodes [0..n-1] form a directed cycle; every node additionally points to
    the next [t] nodes, so each node has the [t+1] successors at distances
    [1..t+1]. Removing any [t] nodes leaves the digraph strongly connected —
    the property Section 6 needs for the flooding simulation of the complete
    network. *)

type t

val augmented_ring : n:int -> t:int -> t
(** @raise Invalid_argument unless [0 <= t] and [t + 2 <= n]. *)

val n : t -> int
val successors : t -> int -> int list
(** Out-neighbours, ascending by distance for the ring. *)

val predecessors : t -> int -> int list
