(* Properties of library values that only the tests evaluate, stated over
   the public types of the modules they describe: the augmented ring's
   connectivity (Section 6), view inclusion and churn density, the
   collect property of round views (Section 7), and the size of the
   Lemma 2.1 protocol class. *)

(* ----- Msgpass.Topology ----- *)

module T = Msgpass.Topology

(* Is the digraph strongly connected once the given nodes are removed? *)
let strongly_connected t ~without =
  let n = T.n t in
  let alive = Array.make n true in
  List.iter (fun i -> alive.(i) <- false) without;
  let nodes = List.init n (fun i -> i) |> List.filter (fun i -> alive.(i)) in
  match nodes with
  | [] -> true
  | root :: _ ->
      let reach edges =
        let seen = Array.make n false in
        let rec go i =
          if alive.(i) && not seen.(i) then begin
            seen.(i) <- true;
            List.iter go (edges i)
          end
        in
        go root;
        List.for_all (fun i -> seen.(i)) nodes
      in
      reach (T.successors t) && reach (T.predecessors t)

(* [strongly_connected] for every set of at most [faults] removed nodes:
   exponential in [faults], for small rings. *)
let survivor_connected t ~faults =
  let n = T.n t in
  let rec subsets k from =
    if k = 0 then [ [] ]
    else if from >= n then []
    else
      List.map (fun s -> from :: s) (subsets (k - 1) (from + 1))
      @ subsets k (from + 1)
  in
  List.init (faults + 1) (fun k -> subsets k 0)
  |> List.concat
  |> List.for_all (fun without -> strongly_connected t ~without)

(* ----- Msgpass.Membership ----- *)

(* [includes a b]: [a] knows everything [b] knows. *)
let includes (a : Msgpass.Membership.view) (b : Msgpass.Membership.view) =
  a.entered lor b.entered = a.entered
  && a.act lor b.act = a.act
  && a.left lor b.left = a.left

(* The worst-case churn count in any [window]-length stretch of the
   schedule, to hold against the configured rate. *)
let max_in_window ~window (c : Msgpass.Membership.churn) =
  let times =
    List.sort compare (List.map snd c.enter_at @ List.map snd c.leave_at)
  in
  let arr = Array.of_list times in
  Array.fold_left
    (fun best t0 ->
      let k =
        Array.fold_left
          (fun k t -> if t >= t0 && t < t0 + window then k + 1 else k)
          0 arr
      in
      max best k)
    0 arr

(* ----- Iterated.Views ----- *)

(* The collect property of Section 7: under the given write order, a
   process that wrote earlier is seen by every later writer —
   [order = [i; j; ...]] meaning [i] wrote first. *)
let write_order_consistency ~equal ~written ~order
    (views : 'v Iterated.Views.vector array) =
  let position = Hashtbl.create 8 in
  List.iteri (fun idx pid -> Hashtbl.replace position pid idx) order;
  let pos pid = Hashtbl.find position pid in
  List.for_all
    (fun i ->
      List.for_all
        (fun j ->
          (not (pos i < pos j))
          ||
          match views.(j).(i) with
          | Some x -> equal x written.(i)
          | None -> false)
        order)
    order

(* Some write order satisfies [write_order_consistency]: the family of
   views is a possible collect outcome (by enumerating permutations, so
   for small n). *)
let consistent_with_some_order ~equal ~written views =
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map
              (fun rest -> x :: rest)
              (permutations (List.filter (fun y -> y <> x) l)))
          l
  in
  let pids = List.init (Array.length views) (fun i -> i) in
  List.exists
    (fun order -> write_order_consistency ~equal ~written ~order views)
    (permutations pids)

(* ----- Core.Consensus_search ----- *)

(* The size of the protocol class [Consensus_search.candidates] walks:
   one write rule per round, over that round's states, and a decide rule
   over the final states. *)
let candidate_count ~rounds =
  let module CS = Core.Consensus_search in
  let rule_space r = 1 lsl CS.state_count ~rounds:r in
  let writes =
    List.fold_left (fun acc r -> acc * rule_space (r - 1)) 1
      (List.init rounds (fun r -> r + 1))
  in
  writes * rule_space rounds
