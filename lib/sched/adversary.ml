type view = { step : int; running : int list; steps_of : int -> int }

type t = view -> int

let run ?(max_steps = 1_000_000) ?(until_outputs = false) adversary state =
  let budget = ref max_steps in
  let continue () =
    (not (until_outputs && Scheduler.all_output state)) && !budget > 0
  in
  let rec loop () =
    match Scheduler.running state with
    | [] -> ()
    | running ->
        if continue () then begin
          let view =
            {
              step = Scheduler.steps_taken state;
              running;
              steps_of = Scheduler.steps_of state;
            }
          in
          let pid = adversary view in
          if not (List.mem pid running) then
            invalid_arg
              (Printf.sprintf "Adversary.run: pid %d is not running" pid);
          Scheduler.step state pid;
          decr budget;
          loop ()
        end
  in
  loop ()

let lockstep view =
  (* Among running processes, pick the one with the fewest steps; ties to
     the smallest id: strict alternation when counts stay equal. *)
  List.fold_left
    (fun best pid ->
      if view.steps_of pid < view.steps_of best then pid else best)
    (List.hd view.running) (List.tl view.running)
