(* [preds] is stored: the pipeline reads it often. *)
type t = { n : int; succs : int list array; preds : int list array }

let augmented_ring ~n ~t =
  if t < 0 || t + 2 > n then
    invalid_arg "Topology.augmented_ring: need 0 <= t and t + 2 <= n";
  let succs =
    Array.init n (fun i -> List.init (t + 1) (fun d -> (i + d + 1) mod n))
  in
  let preds =
    Array.init n (fun i ->
        List.filter (fun j -> List.mem i succs.(j)) (List.init n Fun.id))
  in
  { n; succs; preds }

let n t = t.n
let successors t i = t.succs.(i)

let predecessors t i = t.preds.(i)
