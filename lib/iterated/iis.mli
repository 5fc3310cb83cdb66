(** The iterated immediate snapshot (IIS) model: the {!Proto} engine over
    ordered partitions.

    Per round [r], every still-running process writes once to the fresh
    memory [M_r] and immediately snapshots it. The schedule of one round is
    an {e ordered partition} of the participants: processes in the first
    block write and snapshot seeing only that block; later blocks see all
    earlier ones plus themselves. Ordered partitions are exactly the
    immediate-snapshot executions, so enumerating them enumerates the model
    (3 per round for two processes, 13 for three — Figure 4's growth). *)

type partition = int list list
(** Ordered partition; blocks in write order, each block a set of pids.
    Participants in no block crash. *)

val ordered_partitions : int list -> partition list
(** All ordered partitions of a participant set (13 for 3 elements). *)

include Proto.ENGINE with type plan := partition
