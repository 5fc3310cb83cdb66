(** Incremental (Zobrist-style) hashing of exploration states.

    A state's hash is the XOR of one {!cell} contribution per
    observation-history entry. XOR is self-inverse, so the explorer
    maintains the hash in O(1) per step and per undo instead of
    rehashing the O(depth) history at every node. The contribution
    table is derived from a fixed seed at module initialization —
    hashes are identical across runs, processes, and domains, keeping
    fixed-seed traces byte-deterministic — and is immutable afterwards,
    so reads from parallel workers are race-free. *)

val cell : pid:int -> pos:int -> vhash:int -> int
(** The pseudo-random contribution of one observation cell: [pid] is
    the observing process, [pos] its per-process history position
    (0-based), [vhash] the {!value_hash} of the cell. Non-negative.
    Deterministic in its arguments. *)

val value_hash : 'a -> int
(** Structural hash of a cell value via [Hashtbl.hash_param 256 256] —
    unlike [Hashtbl.hash], which inspects at most 10 meaningful nodes
    and therefore conflates deep values, this distinguishes values
    differing anywhere in their first 256 nodes. Non-negative. *)

val combine : int -> int -> int
(** [combine acc h] folds one element hash into a sequence hash —
    order-sensitive (unlike the explorer's self-inverse per-cell XOR) and
    deterministic across runs, processes and domains. The chaos fleet
    names terminal run states by folding {!value_hash}es of their history
    events through this; start from [0]. Non-negative. *)
