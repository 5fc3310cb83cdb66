(* Theorem 1.3 end-to-end: a t-resilient unbounded-register protocol
   compiled down to 3(t+1)-bit registers via ABD quorums, t-augmented-ring
   flooding, and per-link alternating-bit channels.

   Run with: dune exec examples/resilient_pipeline.exe *)

module Q = Bits.Rational
module W = Msgpass.Wire
module H = Tasks.Harness

let () =
  let n = 5 and t = 2 and rounds = 2 in
  Printf.printf "n = %d processes, t = %d (< n/2) crash resilience\n" n t;
  Printf.printf "source protocol: eps-agreement, eps = 1/%d, unbounded registers\n"
    (Core.Baseline_unbounded.denominator ~rounds);
  Printf.printf "compiled registers: %d bits (= 3(t+1))\n\n"
    (Msgpass.Pipeline.register_bits ~t ~chunk:1);

  let ring = Msgpass.Topology.augmented_ring ~n ~t in
  Printf.printf "t-augmented ring, successors per node:\n";
  for i = 0 to n - 1 do
    Printf.printf "  %d -> %s\n" i
      (String.concat ", "
         (List.map string_of_int (Msgpass.Topology.successors ring i)))
  done;
  (* Checked over every set of at most t removed nodes by the test
     oracles' exhaustive walk (exponential in t: small rings only). *)
  Printf.printf "ring stays connected under any %d faults: %b\n\n" t
    (Oracle.Props.survivor_connected ring ~faults:t);

  let value = W.list_codec (W.pair_codec W.int_codec W.rational_codec) in
  let algorithm =
    Msgpass.Pipeline.algorithm ~n ~t ~value ~input:W.int_codec ~init:[]
      ~source:(fun ~pid ~input ->
        Core.Baseline_unbounded.protocol ~n ~rounds ~me:pid ~input)
      ~name:"pipeline" ()
  in
  let inputs = [| 0; 1; 1; 0; 1 |] in
  Printf.printf "one run with inputs (%s), two processes crashing:\n"
    (String.concat ", " (Array.to_list (Array.map string_of_int inputs)));
  let rng = Bits.Rng.make 7 in
  let state =
    H.run_once algorithm ~inputs
      ~schedule:(`Random (rng, [ (1, 5_000); (4, 60_000) ]))
      ~max_steps:40_000_000 ()
  in
  Array.iteri
    (fun pid d ->
      match d with
      | Some v ->
          Format.printf "  process %d decides %a (%d register steps)@\n" pid
            Q.pp v
            (Sched.Scheduler.steps_of state pid)
      | None -> Format.printf "  process %d crashed@\n" pid)
    (Sched.Scheduler.decisions state);
  Printf.printf "widest register value observed: %d bits\n"
    (Sched.Memory.max_bits_written (Sched.Scheduler.memory state));
  let task =
    Tasks.Eps_agreement.task ~n
      ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  (match
     Tasks.Task.check task ~inputs
       ~outputs:(Sched.Scheduler.decisions state)
   with
  | Ok () -> Printf.printf "outputs legal for the task: yes\n"
  | Error e -> Printf.printf "VIOLATION: %s\n" e)
