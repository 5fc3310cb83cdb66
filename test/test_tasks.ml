(* Tests for lib/task: task specifications and the BMZ machinery. *)

module Q = Bits.Rational
module Bmz = Tasks.Bmz
module Gallery = Tasks.Gallery

let test_eps_task_legality () =
  let task = Tasks.Eps_agreement.task ~n:3 ~k:4 in
  let legal inputs outputs = task.Tasks.Task.legal ~inputs ~outputs in
  Alcotest.(check bool)
    "same inputs force the input value" false
    (legal [| 0; 0; 0 |] [| Some (Q.make 1 4); Some Q.zero; Some Q.zero |]);
  Alcotest.(check bool)
    "agreement within 1/4 accepted" true
    (legal [| 0; 1; 0 |] [| Some (Q.make 1 4); Some (Q.make 2 4); None |]);
  Alcotest.(check bool)
    "spread above 1/4 rejected" false
    (legal [| 0; 1; 0 |] [| Some Q.zero; Some (Q.make 2 4); None |]);
  Alcotest.(check bool)
    "off-grid output rejected" false
    (legal [| 0; 1; 0 |] [| Some (Q.make 1 3); None; None |]);
  Alcotest.(check bool)
    "crashed-only outputs accepted" true
    (legal [| 0; 1; 1 |] [| None; None; None |])

let test_consensus_legality () =
  let task = Tasks.Consensus.binary ~n:3 in
  let legal inputs outputs = task.Tasks.Task.legal ~inputs ~outputs in
  Alcotest.(check bool) "agree on an input" true
    (legal [| 0; 1; 1 |] [| Some 1; Some 1; Some 1 |]);
  Alcotest.(check bool) "disagreement rejected" false
    (legal [| 0; 1; 1 |] [| Some 1; Some 0; Some 1 |]);
  Alcotest.(check bool) "non-input value rejected" false
    (legal [| 0; 0; 0 |] [| Some 1; Some 1; Some 1 |])

let test_input_configurations () =
  let task = Tasks.Eps_agreement.task ~n:3 ~k:2 in
  Alcotest.(check int) "2^3 binary configurations" 8
    (List.length (Tasks.Task.input_configurations task))

(* Lemma 5.7, sufficient direction: solvable tasks admit plans. *)
let test_plan_solvable () =
  List.iter
    (fun (name, ok) ->
      match ok with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s should be solvable: %s" name e)
    [
      ("eps-grid k=1", Result.map ignore (Bmz.plan (Gallery.eps_grid ~k:1)));
      ("eps-grid k=3", Result.map ignore (Bmz.plan (Gallery.eps_grid ~k:3)));
      ("renaming3", Result.map ignore (Bmz.plan Gallery.renaming3));
      ("always-zero", Result.map ignore (Bmz.plan Gallery.always_zero));
      ("hull-agreement", Result.map ignore (Bmz.plan Gallery.hull_agreement));
      ("weak-consensus", Result.map ignore (Bmz.plan Gallery.weak_consensus));
    ]

(* Lemma 5.7, necessary direction: consensus-like tasks are rejected. *)
let test_plan_unsolvable () =
  List.iter
    (fun (name, r) ->
      match r with
      | Ok _ -> Alcotest.failf "%s should NOT admit a plan" name
      | Error _ -> ())
    [
      ( "binary-consensus",
        Result.map ignore (Bmz.plan Gallery.binary_consensus) );
      ("or-task", Result.map ignore (Bmz.plan Gallery.or_task));
      ("exact-max", Result.map ignore (Bmz.plan Gallery.exact_max));
    ]

(* Structural properties of generated paths. *)
let test_plan_paths () =
  match Bmz.plan (Gallery.eps_grid ~k:2) with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let t = plan.Bmz.task in
      Alcotest.(check bool) "length odd" true (plan.Bmz.length mod 2 = 1);
      Alcotest.(check bool) "length >= 3" true (plan.Bmz.length >= 3);
      List.iter
        (fun ((x0, x1), missing) ->
          let path = plan.Bmz.path (x0, x1) ~missing in
          Alcotest.(check int) "path has L+1 entries" (plan.Bmz.length + 1)
            (Array.length path);
          (* Y_0 .. Y_{L-1} are legal for X; consecutive entries adjacent. *)
          for i = 0 to Array.length path - 2 do
            Alcotest.(check bool) "interior vertex legal" true
              (t.Bmz.delta (x0, x1) path.(i));
            Alcotest.(check bool) "consecutive adjacent" true
              (Bmz.adjacent t path.(i) path.(i + 1))
          done;
          (* Last two agree on the survivor's component. *)
          let survivor = 1 - missing in
          let comp (a, b) j = if j = 0 then a else b in
          let l = plan.Bmz.length in
          Alcotest.(check bool) "anchor agreement" true
            (t.Bmz.equal_output
               (comp path.(l - 1) survivor)
               (comp path.(l) survivor)))
        [ ((0, 0), 0); ((0, 1), 0); ((0, 1), 1); ((1, 0), 0); ((1, 1), 1) ]

(* The subset search of Lemma 5.7's existential. *)
let test_plan_searching () =
  (* plan (O' = O) rejects noisy-grid; the subset search solves it. *)
  (match Bmz.plan Gallery.noisy_grid with
  | Ok _ -> Alcotest.fail "noisy-grid should fail with O' = O"
  | Error _ -> ());
  (match Bmz.plan_searching Gallery.noisy_grid with
  | Ok plan ->
      Alcotest.(check bool) "junk config dropped" true
        (not
           (List.exists
              (fun (a, b) -> a = 9 && b = 9)
              plan.Bmz.sub))
  | Error e -> Alcotest.failf "subset search failed: %s" e);
  (* And it still rejects genuinely unsolvable tasks, now with an
     exhaustive no-witness guarantee. *)
  match Bmz.plan_searching Gallery.binary_consensus with
  | Ok _ -> Alcotest.fail "consensus must have no witness subset"
  | Error _ -> ()

(* The harness itself: violation detection and reproducibility. *)

module H = Tasks.Harness

let memory_1bit () =
  Sched.Memory.create ~n:2 ~budget:(Bits.Width.Bounded 1)
    ~measure:(Bits.Width.uint ~max:1) ~init:0

let test_harness_detects_violation () =
  (* Always decide 1/2: violates validity when both inputs are 0. *)
  let algorithm =
    {
      H.name = "bad-half";
      memory = memory_1bit;
      program = (fun ~pid:_ ~input:_ -> Sched.Program.return (Q.make 1 2));
    }
  in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  (match H.check_exhaustive ~task ~algorithm () with
  | H.Fail v ->
      Alcotest.(check bool) "reason mentions illegality" true
        (String.length v.H.reason > 0)
  | H.Pass _ -> Alcotest.fail "violation missed");
  match H.check_random ~task ~algorithm ~runs:50 ~seed:3 () with
  | H.Fail _ -> ()
  | H.Pass _ -> Alcotest.fail "random harness missed the violation"

let test_harness_detects_nontermination () =
  let rec spin () : (int, int, Q.t) Sched.Program.t =
    Sched.Program.Write (0, spin)
  in
  let algorithm =
    { H.name = "spinner"; memory = memory_1bit;
      program = (fun ~pid:_ ~input:_ -> spin ()) }
  in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  (match H.check_exhaustive ~task ~algorithm ~max_steps:200 () with
  | H.Fail v ->
      Alcotest.(check bool) "truncation reported" true
        (String.length v.H.reason > 0)
  | H.Pass _ -> Alcotest.fail "non-termination missed");
  match H.check_random ~task ~algorithm ~max_steps:500 ~runs:3 ~seed:1 () with
  | H.Fail _ -> ()
  | H.Pass _ -> Alcotest.fail "random harness missed non-termination"

let test_harness_reproducible () =
  let k = 3 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(2 * k + 1) in
  let algorithm =
    {
      H.name = "alg1";
      memory = memory_1bit;
      program =
        (fun ~pid ~input ->
          Core.Alg1_one_bit.protocol ~env:Core.Alg1_one_bit.env_standalone
            ~k ~me:pid ~input);
    }
  in
  let run () = H.check_random ~task ~algorithm ~runs:40 ~seed:77 () in
  match (run (), run ()) with
  | H.Pass a, H.Pass b ->
      Alcotest.(check int) "same stats" a.H.max_process_steps
        b.H.max_process_steps
  | _ -> Alcotest.fail "expected passes"

(* check_random under a deadline: a run still going when it passes is
   abandoned unjudged and the report covers the runs before it, so a
   spinner that would fail at its step cap stops as a [Pass] of 0 runs; a
   deadline that never passes leaves the report as it was. *)
let test_check_random_deadline () =
  let rec spin () : (int, int, Q.t) Sched.Program.t =
    Sched.Program.Write (0, spin)
  in
  let spinner =
    { H.name = "spinner"; memory = memory_1bit;
      program = (fun ~pid:_ ~input:_ -> Sched.Program.Stateful (spin ())) }
  in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  (match H.check_random ~task ~algorithm:spinner ~runs:1 ~seed:1 () with
  | H.Fail _ -> ()
  | H.Pass _ -> Alcotest.fail "an unbudgeted spinner must fail");
  (match
     H.check_random ~task ~algorithm:spinner ~max_steps:20_000_000
       ~budget:(Sched.Budget.make ~deadline:0.05 ())
       ~runs:3 ~seed:1 ()
   with
  | H.Pass stats -> Alcotest.(check int) "no run finished" 0 stats.H.runs
  | H.Fail v -> Alcotest.fail ("a stopped run was judged: " ^ v.H.reason));
  let k = 3 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(2 * k + 1) in
  let algorithm = Core.Alg1_one_bit.algorithm ~k in
  let run budget =
    H.check_random ~task ~algorithm ?budget ~runs:40 ~seed:77 ()
  in
  match (run None, run (Some (Sched.Budget.make ~deadline:3600. ()))) with
  | H.Pass a, H.Pass b ->
      Alcotest.(check int) "every run finished" 40 b.H.runs;
      Alcotest.(check bool) "same stats as unbudgeted" true (a = b)
  | _ -> Alcotest.fail "expected passes"

(* Every violation carries a concrete schedule; [run_once] with
   [`Replay] re-executes it bit-for-bit, reproducing the failing
   decisions. *)
let bad_half_algorithm () =
  {
    H.name = "bad-half";
    memory = memory_1bit;
    program = (fun ~pid:_ ~input:_ -> Sched.Program.return (Q.make 1 2));
  }

let test_violation_carries_schedule () =
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  let algorithm = bad_half_algorithm () in
  (match H.check_exhaustive ~task ~algorithm () with
  | H.Fail v -> (
      match v.H.schedule with
      | None -> Alcotest.fail "exhaustive violation without schedule"
      | Some _ -> ())
  | H.Pass _ -> Alcotest.fail "violation missed");
  match H.check_random ~task ~algorithm ~runs:50 ~seed:3 () with
  | H.Fail v ->
      Alcotest.(check bool) "random violation has schedule" true
        (v.H.schedule <> None)
  | H.Pass _ -> Alcotest.fail "random harness missed the violation"

let test_replay_reproduces_decisions () =
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  let algorithm = bad_half_algorithm () in
  let replayed v =
    let pids = Option.get v.H.schedule in
    let state =
      H.run_once algorithm ~inputs:v.H.inputs
        ~schedule:(`Replay (pids, v.H.crashes)) ()
    in
    (* Same illegal outcome: both survivors decided 1/2 on inputs the
       task rejects, with the recorded crash pattern applied. *)
    Alcotest.(check bool) "decisions violate the task" false
      (task.Tasks.Task.legal ~inputs:v.H.inputs
         ~outputs:(Sched.Scheduler.decisions state));
    Alcotest.(check (list int))
      "crash pattern reproduced"
      (List.sort compare (List.map fst v.H.crashes))
      (List.sort compare (Sched.Scheduler.crashed state))
  in
  (match H.check_exhaustive ~task ~algorithm () with
  | H.Fail v -> replayed v
  | H.Pass _ -> Alcotest.fail "violation missed");
  match H.check_random ~task ~algorithm ~runs:50 ~seed:3 () with
  | H.Fail v -> replayed v
  | H.Pass _ -> Alcotest.fail "random harness missed the violation"

let test_replay_nontermination_schedule () =
  (* Truncated (non-terminating) runs also carry their schedule, capped at
     max_steps; replay re-executes exactly those steps. *)
  let rec spin () : (int, int, Q.t) Sched.Program.t =
    Sched.Program.Write (0, spin)
  in
  let algorithm =
    { H.name = "spinner"; memory = memory_1bit;
      program = (fun ~pid:_ ~input:_ -> spin ()) }
  in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  match H.check_exhaustive ~task ~algorithm ~max_steps:64 () with
  | H.Pass _ -> Alcotest.fail "non-termination missed"
  | H.Fail v -> (
      match v.H.schedule with
      | None -> Alcotest.fail "truncated violation without schedule"
      | Some pids -> (
          Alcotest.(check int) "schedule capped at max_steps" 64
            (List.length pids);
          H.run_once algorithm ~inputs:v.H.inputs
            ~schedule:(`Replay (pids, v.H.crashes)) ()
          |> Sched.Scheduler.steps_taken
          |> Alcotest.(check int) "replay takes the same steps" 64))

(* Supervised checking: budgets degrade to sampled coverage instead of
   failing, and violations, non-termination included, are still caught
   while sampling. *)

let alg1_algorithm ~k =
  {
    H.name = "alg1";
    memory = memory_1bit;
    program =
      (fun ~pid ~input ->
        Core.Alg1_one_bit.protocol ~env:Core.Alg1_one_bit.env_standalone ~k
          ~me:pid ~input);
  }

let test_supervised_unbudgeted_is_exhaustive () =
  let k = 2 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(2 * k + 1) in
  let algorithm = alg1_algorithm ~k in
  match
    ( H.check_supervised ~task ~algorithm ~max_crashes:1 (),
      H.check_exhaustive ~task ~algorithm ~max_crashes:1 () )
  with
  | H.Verified_exhaustive a, H.Pass b ->
      Alcotest.(check int) "same number of runs" b.H.runs a.H.runs;
      Alcotest.(check int) "same step bound" b.H.max_process_steps
        a.H.max_process_steps
  | _ -> Alcotest.fail "expected exhaustive verification on both paths"

let test_supervised_degrades_to_sampled () =
  let k = 2 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(2 * k + 1) in
  let algorithm = alg1_algorithm ~k in
  match
    H.check_supervised ~task ~algorithm ~max_crashes:1
      ~budget:(Sched.Budget.make ~max_nodes:50 ())
      ~seed:11 ()
  with
  | H.Verified_sampled (stats, c) ->
      Alcotest.(check bool) "stopped by the node cap" true
        (c.H.stop = Sched.Budget.Node_cap);
      Alcotest.(check bool) "frontier was recorded" true (c.H.frontier > 0);
      Alcotest.(check bool) "frontier was sampled" true (c.H.sampled > 0);
      Alcotest.(check int) "sample seed recorded" 11 c.H.sample_seed;
      Alcotest.(check bool) "sampled runs counted in stats" true
        (stats.H.runs >= c.H.sampled);
      (* The lossy collapse still reads as a pass. *)
      (match H.report_of_verdict (H.Verified_sampled (stats, c)) with
      | H.Pass _ -> ()
      | H.Fail _ -> Alcotest.fail "sampled verdict must collapse to Pass")
  | H.Verified_exhaustive _ ->
      Alcotest.fail "a 50-node budget cannot cover the whole tree"
  | H.Violation v -> Alcotest.fail ("unexpected violation: " ^ v.H.reason)

let test_supervised_violation_found_while_sampling () =
  (* Wrong on equal inputs, but only after a memory step — the root is
     not terminal, so with a 1-node budget the violation can only be
     caught by the sampling fallback, never the exhaustive pass. *)
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  let algorithm =
    {
      H.name = "stepping-bad-half";
      memory = memory_1bit;
      program =
        (fun ~pid:_ ~input:_ ->
          Sched.Program.Write
            (0, fun () -> Sched.Program.return (Q.make 1 2)));
    }
  in
  match
    H.check_supervised ~task ~algorithm
      ~budget:(Sched.Budget.make ~max_nodes:1 ())
      ~seed:5 ()
  with
  | H.Violation v ->
      Alcotest.(check bool) "sampled violation carries the seed" true
        (v.H.seed <> None);
      Alcotest.(check bool) "reason is reported" true
        (String.length v.H.reason > 0)
  | H.Verified_exhaustive _ | H.Verified_sampled _ ->
      Alcotest.fail "sampling fallback missed the violation"

let test_supervised_parallel_sampling () =
  (* Frontier sampling gives every sample an rng derived from the seed
     and its global sample index, and folds outcomes in sample order on
     the calling domain, so the whole verdict — stats, coverage, and a
     violation's schedule and crashes — is the same at jobs 1, 2 and 4. *)
  let jobs_invariant name pp_i run =
    let base = run 1 in
    let show v = Format.asprintf "%a" (H.pp_verdict pp_i) v in
    List.iter
      (fun jobs ->
        let v = run jobs in
        Alcotest.(check string)
          (Printf.sprintf "%s: jobs %d prints like jobs 1" name jobs)
          (show base) (show v);
        Alcotest.(check bool)
          (Printf.sprintf "%s: jobs %d verdict = jobs 1" name jobs)
          true (v = base))
      [ 2; 4 ];
    base
  in
  let sampled name ~k ~max_nodes ~seed =
    let task = Tasks.Eps_agreement.task ~n:2 ~k:(2 * k + 1) in
    let algorithm = alg1_algorithm ~k in
    match
      jobs_invariant name Format.pp_print_int (fun jobs ->
          H.check_supervised ~task ~algorithm ~max_crashes:1
            ~budget:(Sched.Budget.make ~max_nodes ())
            ~seed ~jobs ())
    with
    | H.Verified_sampled (_, c) ->
        Alcotest.(check bool) (name ^ ": the frontier was sampled") true
          (c.H.sampled > 0)
    | _ -> Alcotest.failf "%s: expected sampled verification" name
  in
  sampled "alg1 k=2" ~k:2 ~max_nodes:50 ~seed:11;
  (* Here the sampled step bound depends on the rng stream (9 or 7
     steps/process), so a width-dependent stream would show. *)
  sampled "alg1 k=8" ~k:8 ~max_nodes:30 ~seed:1;
  let bad =
    {
      H.name = "stepping-bad-half";
      memory = memory_1bit;
      program =
        (fun ~pid:_ ~input:_ ->
          Sched.Program.Write (0, fun () -> Sched.Program.return (Q.make 1 2)));
    }
  in
  match
    jobs_invariant "bad-half" Format.pp_print_int (fun jobs ->
        H.check_supervised ~task:(Tasks.Eps_agreement.task ~n:2 ~k:2)
          ~algorithm:bad
          ~budget:(Sched.Budget.make ~max_nodes:1 ())
          ~seed:5 ~jobs ())
  with
  | H.Violation v ->
      Alcotest.(check (option int)) "violation names the sample seed"
        (Some 5) v.H.seed;
      Alcotest.(check bool) "violation carries its schedule" true
        (v.H.schedule <> None)
  | H.Verified_exhaustive _ | H.Verified_sampled _ ->
      Alcotest.fail "parallel sampling missed the violation"

let test_supervised_undecided_sample () =
  (* The spinner never decides. Cut at one node, the check can only meet
     it in a frontier sample, and a sample still undecided at [max_steps]
     is a non-termination violation, as an exhaustive path would be. *)
  let rec spin () : (int, int, Q.t) Sched.Program.t =
    Sched.Program.Write (0, spin)
  in
  let algorithm =
    { H.name = "spinner"; memory = memory_1bit;
      program = (fun ~pid:_ ~input:_ -> spin ()) }
  in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:2 in
  match
    H.check_supervised ~task ~algorithm ~max_steps:40
      ~budget:(Sched.Budget.make ~max_nodes:1 ())
      ~seed:3 ()
  with
  | H.Violation v ->
      Alcotest.(check (option int)) "found while sampling" (Some 3) v.H.seed;
      Alcotest.(check bool) "reported as non-termination" true
        (String.starts_with ~prefix:"process(es)" v.H.reason)
  | H.Verified_exhaustive _ | H.Verified_sampled _ ->
      Alcotest.fail "an undecided sample must be a violation"

let () =
  Alcotest.run "tasks"
    [
      ( "specs",
        [
          Alcotest.test_case "eps-agreement legality" `Quick
            test_eps_task_legality;
          Alcotest.test_case "consensus legality" `Quick
            test_consensus_legality;
          Alcotest.test_case "input configurations" `Quick
            test_input_configurations;
        ] );
      ( "bmz",
        [
          Alcotest.test_case "solvable tasks admit plans" `Quick
            test_plan_solvable;
          Alcotest.test_case "unsolvable tasks rejected" `Quick
            test_plan_unsolvable;
          Alcotest.test_case "path structure" `Quick test_plan_paths;
          Alcotest.test_case "subset search (Lemma 5.7 existential)" `Quick
            test_plan_searching;
        ] );
      ( "harness",
        [
          Alcotest.test_case "detects violations" `Quick
            test_harness_detects_violation;
          Alcotest.test_case "detects non-termination" `Quick
            test_harness_detects_nontermination;
          Alcotest.test_case "reproducible from seed" `Quick
            test_harness_reproducible;
          Alcotest.test_case "check_random stops at its deadline" `Quick
            test_check_random_deadline;
          Alcotest.test_case "violations carry schedules" `Quick
            test_violation_carries_schedule;
          Alcotest.test_case "replay reproduces decisions" `Quick
            test_replay_reproduces_decisions;
          Alcotest.test_case "replay of truncated runs" `Quick
            test_replay_nontermination_schedule;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "unbudgeted = exhaustive" `Quick
            test_supervised_unbudgeted_is_exhaustive;
          Alcotest.test_case "budget degrades to sampled coverage" `Quick
            test_supervised_degrades_to_sampled;
          Alcotest.test_case "violation found while sampling" `Quick
            test_supervised_violation_found_while_sampling;
          Alcotest.test_case "parallel sampling is jobs-invariant" `Quick
            test_supervised_parallel_sampling;
          Alcotest.test_case "undecided samples are violations" `Quick
            test_supervised_undecided_sample;
        ] );
    ]
