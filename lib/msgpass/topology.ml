(* [preds] is stored: the pipeline and the connectivity walks read it often. *)
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

let strongly_connected t ~without =
  let alive = Array.make t.n true in
  List.iter (fun i -> alive.(i) <- false) without;
  let nodes =
    List.init t.n (fun i -> i) |> List.filter (fun i -> alive.(i))
  in
  match nodes with
  | [] -> true
  | root :: _ ->
      let reach edges =
        let seen = Array.make t.n false in
        let rec go i =
          if alive.(i) && not seen.(i) then begin
            seen.(i) <- true;
            List.iter go (edges i)
          end
        in
        go root;
        List.for_all (fun i -> seen.(i)) nodes
      in
      reach (successors t) && reach (predecessors t)

let survivor_connected t ~faults =
  let rec subsets k from =
    if k = 0 then [ [] ]
    else if from >= t.n then []
    else
      List.map (fun s -> from :: s) (subsets (k - 1) (from + 1))
      @ subsets k (from + 1)
  in
  List.init (faults + 1) (fun k -> subsets k 0)
  |> List.concat
  |> List.for_all (fun without -> strongly_connected t ~without)
