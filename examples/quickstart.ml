(* Quickstart: epsilon-agreement between two processes over 1-bit registers
   (Algorithm 1 of the paper, Theorem 1.2).

   Run with: dune exec examples/quickstart.exe *)

module Q = Bits.Rational
module H = Tasks.Harness
module Scheduler = Sched.Scheduler

let () =
  let k = 4 in
  let den = Core.Alg1_one_bit.denominator ~k in
  Printf.printf "Algorithm 1 with k = %d: epsilon = 1/%d, 1-bit registers\n\n"
    k den;

  (* One concrete execution with a recorded trace (compare Figure 2). *)
  let algorithm = Core.Alg1_one_bit.algorithm ~k in
  let memory = algorithm.H.memory () in
  let state =
    Scheduler.start ~record_trace:true ~memory
      ~programs:(fun pid -> algorithm.H.program ~pid ~input:pid)
      ()
  in
  Scheduler.run_random (Bits.Rng.make 2024) state;
  Printf.printf "One execution with inputs (0, 1):\n";
  Format.printf "%a@\n@\n" (Sched.Trace.pp Format.pp_print_int)
    (Scheduler.trace state);
  Array.iteri
    (fun pid d ->
      match d with
      | Some v -> Format.printf "  process %d decides %a@\n" pid Q.pp v
      | None -> Format.printf "  process %d crashed@\n" pid)
    (Scheduler.decisions state);

  (* Exhaustive verification over every interleaving and crash placement. *)
  let task = Tasks.Eps_agreement.task ~n:2 ~k:den in
  Format.printf "@\nExhaustive check (all interleavings, <=1 crash): %a@\n"
    (H.pp_report Format.pp_print_int)
    (H.check_exhaustive ~task ~algorithm ~max_crashes:1 ());

  (* All decision pairs reachable with inputs (0, 1): the chromatic path. *)
  Printf.printf "\nDecision pairs over all executions with inputs (0, 1):\n";
  let pairs = ref [] in
  let (_ : Sched.Explore.result) =
    Sched.Explore.explore
      ~init:(fun () ->
        Scheduler.start
          ~memory:(algorithm.H.memory ())
          ~programs:(fun pid -> algorithm.H.program ~pid ~input:pid)
          ())
      (fun st ->
        match ((Scheduler.decisions st).(0), (Scheduler.decisions st).(1)) with
        | Some a, Some b ->
            if
              not (List.exists (fun (x, y) -> Q.equal x a && Q.equal y b) !pairs)
            then pairs := (a, b) :: !pairs
        | _ -> ())
  in
  List.sort (fun (a, _) (b, _) -> Q.compare a b) !pairs
  |> List.iter (fun (a, b) -> Format.printf "  (%a, %a)@\n" Q.pp a Q.pp b)
