type partition = int list list

(* All ordered partitions: insert each element either into an existing block
   or as a new singleton block at every position. *)
let ordered_partitions elements =
  let insert_everywhere x partition =
    let rec positions prefix = function
      | [] -> [ List.rev ([ x ] :: prefix) ]
      | block :: rest ->
          List.rev_append prefix (((x :: block) :: rest))
          :: List.rev_append prefix ([ x ] :: block :: rest)
          :: positions (block :: prefix) rest
    in
    positions [] partition
  in
  List.fold_left
    (fun partitions x ->
      List.concat_map (insert_everywhere x) partitions)
    [ [] ] elements
  |> List.map (List.map (List.sort compare))

include Proto.Make (struct
  type plan = partition

  let survivors = List.concat

  (* Block order: [i] sees [j] iff [j]'s block is not after [i]'s. *)
  let sees ~n partition =
    let block = Array.make n (-1) in
    List.iteri (fun b -> List.iter (fun pid -> block.(pid) <- b)) partition;
    Array.init n (fun i ->
        Array.init n (fun j -> block.(j) >= 0 && block.(j) <= block.(i)))

  let all ~n:_ = ordered_partitions
end)
