(* Acyclicity of the misses digraph (edge i -> j when i missed j), checked
   by repeatedly removing sinks. *)
let misses_acyclic ~participants sees =
  let misses i j = (not sees.(i).(j)) && i <> j in
  let rec strip remaining =
    match remaining with
    | [] -> true
    | _ ->
        let is_source i =
          List.for_all (fun j -> not (misses j i)) remaining
        in
        (match List.partition is_source remaining with
        | [], _ -> false (* every node has an incoming miss: a cycle *)
        | _, rest -> strip rest)
  in
  strip participants

let all_matrices ~n ~participants =
  let others i = List.filter (fun j -> j <> i) participants in
  (* Enumerate each row's subset of seen peers. *)
  let rec rows = function
    | [] -> [ [] ]
    | i :: rest ->
        let rest_rows = rows rest in
        let subsets =
          List.fold_left
            (fun acc j ->
              List.concat_map (fun s -> [ j :: s; s ]) acc)
            [ [] ] (others i)
        in
        List.concat_map
          (fun seen -> List.map (fun tl -> (i, seen) :: tl) rest_rows)
          subsets
  in
  rows participants
  |> List.filter_map (fun assignment ->
         let sees = Array.make_matrix n n false in
         List.iter
           (fun (i, seen) ->
             sees.(i).(i) <- true;
             List.iter (fun j -> sees.(i).(j) <- true) seen)
           assignment;
         if misses_acyclic ~participants sees then Some sees else None)

type round_plan = { survivors : int list; sees : bool array array }

include Proto.Make (struct
  type plan = round_plan

  let survivors p = p.survivors

  (* Only realizable matrices: n x n, every survivor finds its own write,
     and the misses among survivors are acyclic. *)
  let sees ~n p =
    let reject why = invalid_arg ("Ic: sees matrix " ^ why) in
    if
      Array.length p.sees <> n
      || Array.exists (fun row -> Array.length row <> n) p.sees
    then reject (Printf.sprintf "is not %d x %d" n n);
    List.iter
      (fun i ->
        if not p.sees.(i).(i) then
          reject (Printf.sprintf "has survivor %d miss its own write" i))
      p.survivors;
    if not (misses_acyclic ~participants:p.survivors p.sees) then
      reject "has cyclic misses among survivors";
    p.sees

  let all ~n participants =
    List.map
      (fun sees -> { survivors = participants; sees })
      (all_matrices ~n ~participants)
end)
