(* Plain Wing–Gong linearizability search over register histories: the
   differential oracle for [Check.Linearize.check]. It branches over every
   minimal candidate — no greedy reads, no trail, no frame stack — so it
   is exponential and fit only for small histories. The helpers are its
   own copies, so a bug in the checker's versions cannot hide here. *)

open Check.Linearize

let completed e = e.res <> None

(* [e] may be linearized next iff no other remaining completed operation
   finished before [e] was invoked. Pending operations never constrain
   others (their response is in the open future). *)
let minimal used evs i =
  let e = evs.(i) in
  let blocked = ref false in
  Array.iteri
    (fun j e' ->
      if (not !blocked) && j <> i && not used.(j) then
        match e'.res with
        | Some r when r < e.inv -> blocked := true
        | Some _ | None -> ())
    evs;
  not !blocked

let group_by_reg events =
  List.sort_uniq compare (List.map (fun e -> e.reg) events)
  |> List.map (fun reg -> (reg, List.filter (fun e -> e.reg = reg) events))

(* Per register: pending reads promise nothing and are dropped; pending
   writes may or may not have taken effect. The history is linearizable
   iff every completed operation can be placed. *)
let check ~init ~equal events =
  let one_reg (reg, evs) =
    let evs =
      Array.of_list
        (List.filter
           (fun e ->
             completed e || match e.op with Read _ -> false | Write _ -> true)
           evs)
    in
    let nn = Array.length evs in
    let used = Array.make nn false in
    let rec go value remaining =
      if remaining = 0 then true
      else begin
        let ok = ref false in
        for i = 0 to nn - 1 do
          if (not !ok) && (not used.(i)) && minimal used evs i then begin
            let attempt value' =
              used.(i) <- true;
              if go value' (if completed evs.(i) then remaining - 1 else remaining)
              then ok := true
              else used.(i) <- false
            in
            match evs.(i).op with
            | Read v -> if equal v value then attempt value
            | Write v -> attempt v
          end
        done;
        !ok
      end
    in
    go (init reg)
      (Array.fold_left (fun k e -> if completed e then k + 1 else k) 0 evs)
  in
  List.for_all one_reg (group_by_reg events)
