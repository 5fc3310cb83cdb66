(* The reference twin of [Iterated.Ic.all_matrices]: the distinct sees
   matrices of one IC round, derived operationally instead of from the
   acyclic-misses characterization. A DFS over every interleaving of the
   participants' writes and single-register reads (a process may read its
   pending registers in any order). Exponential — for at most 3
   participants. *)
let matrices_by_interleaving ~n ~participants =
  let module M = struct
    type proc = { wrote : bool; pending : int list; seen : int list }
  end in
  let open M in
  let results : bool array array list ref = ref [] in
  let record procs =
    let sees = Array.make_matrix n n false in
    List.iter
      (fun (i, p) ->
        sees.(i).(i) <- true;
        List.iter (fun j -> sees.(i).(j) <- true) p.seen)
      procs;
    if not (List.exists (fun m -> m = sees) !results) then
      results := sees :: !results
  in
  let rec go procs written =
    let moves =
      List.concat_map
        (fun (i, p) ->
          if not p.wrote then [ `Write i ]
          else List.map (fun j -> `Read (i, j)) p.pending)
        procs
    in
    if moves = [] then record procs
    else
      List.iter
        (fun move ->
          match move with
          | `Write i ->
              let procs =
                List.map
                  (fun (i', p) ->
                    if i' = i then (i', { p with wrote = true }) else (i', p))
                  procs
              in
              go procs (i :: written)
          | `Read (i, j) ->
              let procs =
                List.map
                  (fun (i', p) ->
                    if i' = i then
                      ( i',
                        {
                          p with
                          pending = List.filter (fun x -> x <> j) p.pending;
                          seen =
                            (if List.mem j written then j :: p.seen
                             else p.seen);
                        } )
                    else (i', p))
                  procs
              in
              go procs written)
        moves
  in
  let others i = List.filter (fun j -> j <> i) participants in
  go
    (List.map
       (fun i -> (i, { wrote = false; pending = others i; seen = [] }))
       participants)
    [];
  !results
