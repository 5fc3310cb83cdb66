type 'o config = 'o * 'o

type ('i, 'o) two_task = {
  name : string;
  inputs : 'i list;
  legal_input : 'i * 'i -> bool;
  outputs : 'o config list;
  delta : 'i * 'i -> 'o config -> bool;
  equal_input : 'i -> 'i -> bool;
  equal_output : 'o -> 'o -> bool;
  pp_input : Format.formatter -> 'i -> unit;
  pp_output : Format.formatter -> 'o -> unit;
}

let equal_config t (a0, a1) (b0, b1) =
  t.equal_output a0 b0 && t.equal_output a1 b1

let adjacent t (a0, a1) (b0, b1) =
  t.equal_output a0 b0 || t.equal_output a1 b1

type ('i, 'o) plan = {
  task : ('i, 'o) two_task;
  sub : 'o config list;
  length : int;
  delta_full : 'i * 'i -> 'o config;
  delta_partial : missing:int -> 'i -> 'o config;
  path : 'i * 'i -> missing:int -> 'o config array;
}

let dedupe t configs =
  List.fold_left
    (fun acc c -> if List.exists (equal_config t c) acc then acc else c :: acc)
    [] configs
  |> List.rev

let full_inputs t =
  List.concat_map
    (fun x0 -> List.map (fun x1 -> (x0, x1)) t.inputs)
    t.inputs
  |> List.filter t.legal_input

(* Partial inputs: (missing process, input of the survivor) such that at
   least one completion is a legal input configuration. *)
let partial_inputs t =
  let completions missing x =
    List.filter
      (fun x' ->
        t.legal_input (if missing = 0 then (x', x) else (x, x')))
      t.inputs
  in
  List.concat_map
    (fun missing ->
      List.filter_map
        (fun x ->
          match completions missing x with [] -> None | _ -> Some (missing, x))
        t.inputs)
    [ 0; 1 ]

let component (y0, y1) j = if j = 0 then y0 else y1

(* BFS path between two configurations inside a vertex set; [None] when
   disconnected. *)
let bfs_path t vertices ~src ~dst =
  let vs = Array.of_list vertices in
  let n = Array.length vs in
  let index c =
    let rec find i =
      if i = n then None
      else if equal_config t c vs.(i) then Some i
      else find (i + 1)
    in
    find 0
  in
  match (index src, index dst) with
  | None, _ | _, None -> None
  | Some s, Some d ->
      let prev = Array.make n (-1) in
      let seen = Array.make n false in
      seen.(s) <- true;
      let queue = Queue.create () in
      Queue.add s queue;
      let rec loop () =
        if Queue.is_empty queue then None
        else
          let u = Queue.pop queue in
          if u = d then begin
            let rec backtrack acc v =
              if v = s then vs.(s) :: acc
              else backtrack (vs.(v) :: acc) prev.(v)
            in
            Some (backtrack [] d)
          end
          else begin
            for v = 0 to n - 1 do
              if
                (not seen.(v)) && adjacent t vs.(u) vs.(v)
                && not (equal_config t vs.(u) vs.(v))
              then begin
                seen.(v) <- true;
                prev.(v) <- u;
                Queue.add v queue
              end
            done;
            loop ()
          end
      in
      loop ()

let restricted t sub x = List.filter (t.delta x) sub

let connected t vertices =
  match vertices with
  | [] -> false
  | src :: _ ->
      List.for_all
        (fun dst -> bfs_path t vertices ~src ~dst <> None)
        vertices

(* The covering condition for one partial input: a value for the survivor's
   component compatible with every completion. Returns the chosen survivor
   value and, as delta(X^missing), a configuration of O' carrying it. *)
let covering_choice t sub ~missing x =
  let survivor = 1 - missing in
  let completions =
    List.filter_map
      (fun x' ->
        let full = if missing = 0 then (x', x) else (x, x') in
        if t.legal_input full then Some full else None)
      t.inputs
  in
  let candidates =
    dedupe t sub |> List.map (fun c -> component c survivor)
  in
  let works y =
    List.for_all
      (fun full ->
        List.exists
          (fun c -> t.equal_output (component c survivor) y)
          (restricted t sub full))
      completions
  in
  match List.find_opt works candidates with
  | None -> None
  | Some y ->
      let anchor =
        List.find
          (fun c -> t.equal_output (component c survivor) y)
          sub
      in
      Some (y, anchor)

let check t ~sub =
  let sub = dedupe t sub in
  let check_connectivity x =
    let vs = restricted t sub x in
    if vs = [] then
      Error
        (Format.asprintf "task %s: Delta(X) ∩ O' empty for input (%a, %a)"
           t.name t.pp_input (fst x) t.pp_input (snd x))
    else if not (connected t vs) then
      Error
        (Format.asprintf
           "task %s: G(Delta(X) ∩ O') disconnected for input (%a, %a)" t.name
           t.pp_input (fst x) t.pp_input (snd x))
    else Ok ()
  in
  let check_covering (missing, x) =
    match covering_choice t sub ~missing x with
    | Some _ -> Ok ()
    | None ->
        Error
          (Format.asprintf
             "task %s: covering fails for partial input X^%d with survivor \
              input %a"
             t.name missing t.pp_input x)
  in
  let rec first_error = function
    | [] -> Ok ()
    | Ok () :: rest -> first_error rest
    | (Error _ as e) :: _ -> e
  in
  first_error
    (List.map check_connectivity (full_inputs t)
    @ List.map check_covering (partial_inputs t))

let plan ?sub t =
  let sub = dedupe t (Option.value sub ~default:t.outputs) in
  match check t ~sub with
  | Error _ as e -> e
  | Ok () -> (
      let delta_full_choice x =
        match restricted t sub x with
        | [] -> assert false (* ruled out by [check] *)
        | y :: _ -> y
      in
      let partial_choices =
        List.map
          (fun (missing, x) ->
            match covering_choice t sub ~missing x with
            | None -> assert false (* ruled out by [check] *)
            | Some (y, anchor) -> ((missing, x), (y, anchor)))
          (partial_inputs t)
      in
      let find_partial ~missing x =
        match
          List.find_opt
            (fun ((m, x'), _) -> m = missing && t.equal_input x x')
            partial_choices
        with
        | Some (_, choice) -> choice
        | None ->
            invalid_arg
              (Format.asprintf "Bmz: no partial input X^%d with survivor %a"
                 missing t.pp_input x)
      in
      (* Raw (unpadded) path for one (full input, missing process) pair:
         Y_0 .. Y_{L-1} inside Delta(X) ∩ O', then the anchor Y_L. *)
      let raw_path x ~missing =
        let survivor = 1 - missing in
        let survivor_input = component x survivor in
        let y_surv, y_last = find_partial ~missing survivor_input in
        let vertices = restricted t sub x in
        let y0 = delta_full_choice x in
        let y_pre =
          List.find
            (fun c -> t.equal_output (component c survivor) y_surv)
            vertices
        in
        match bfs_path t vertices ~src:y0 ~dst:y_pre with
        | None -> assert false (* connectivity was checked *)
        | Some walk -> walk @ [ y_last ]
      in
      let keyed_paths =
        List.concat_map
          (fun x -> [ ((x, 0), raw_path x ~missing:0);
                      ((x, 1), raw_path x ~missing:1) ])
          (full_inputs t)
      in
      let longest =
        List.fold_left
          (fun acc (_, p) -> max acc (List.length p - 1))
          1 keyed_paths
      in
      let length =
        let l = max longest 3 in
        if l mod 2 = 0 then l + 1 else l
      in
      let pad p =
        let missing_entries = length + 1 - List.length p in
        let head = match p with y0 :: _ -> y0 | [] -> assert false in
        Array.of_list (List.init missing_entries (fun _ -> head) @ p)
      in
      let padded = List.map (fun (key, p) -> (key, pad p)) keyed_paths in
      let path x ~missing =
        match
          List.find_opt
            (fun (((x0, x1), m), _) ->
              m = missing && t.equal_input x0 (fst x)
              && t.equal_input x1 (snd x))
            padded
        with
        | Some (_, p) -> p
        | None ->
            invalid_arg
              (Format.asprintf "Bmz.path: illegal input (%a, %a)" t.pp_input
                 (fst x) t.pp_input (snd x))
      in
      Ok
        {
          task = t;
          sub;
          length;
          delta_full = delta_full_choice;
          delta_partial =
            (fun ~missing x -> snd (find_partial ~missing x));
          path;
        })

let to_task t =
  let arity = 2 in
  let legal ~inputs ~outputs =
    let x = (inputs.(0), inputs.(1)) in
    let matches c =
      let ok j =
        match outputs.(j) with
        | None -> true
        | Some y -> t.equal_output y (component c j)
      in
      ok 0 && ok 1
    in
    List.exists (fun c -> t.delta x c && matches c) t.outputs
  in
  {
    Task.name = t.name;
    arity;
    input_domain = t.inputs;
    legal_inputs = (fun a -> t.legal_input (a.(0), a.(1)));
    legal;
    pp_input = t.pp_input;
    pp_output = t.pp_output;
  }


(* Subset search sweeps 2^m masks: refuse more outputs than this. *)
let max_outputs = 12

let plan_searching t =
  let outputs = dedupe t t.outputs in
  let m = List.length outputs in
  if m > max_outputs then
    Error
      (Format.asprintf
         "task %s: %d output configurations exceed the subset-search limit %d"
         t.name m max_outputs)
  else begin
    let arr = Array.of_list outputs in
    (* Masks with more members first: prefer the least-restricted witness. *)
    let masks = List.init (1 lsl m) (fun x -> x + 1) in
    let popcount x =
      let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
      go 0 x
    in
    let sorted =
      List.sort (fun a b -> compare (popcount b) (popcount a)) masks
    in
    let subset_of mask =
      List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list arr)
    in
    let rec try_masks = function
      | [] ->
          Error
            (Format.asprintf
               "task %s: no subset of the %d output configurations satisfies \
                Lemma 5.7"
               t.name m)
      | mask :: rest -> (
          match plan ~sub:(subset_of mask) t with
          | Ok _ as ok -> ok
          | Error _ -> try_masks rest)
    in
    try_masks sorted
  end
