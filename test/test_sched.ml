(* Tests for lib/sched: memory, scheduler semantics, exhaustive exploration,
   snapshots. *)

module P = Sched.Program
module M = Sched.Memory
module S = Sched.Scheduler
open P.Infix

let make_memory ?(n = 2) ?(budget = Bits.Width.Unbounded) () =
  M.create ~n ~budget ~measure:(fun (v : int) -> Bits.Width.bits_for v)
    ~init:0

let untracked_memory n =
  M.create ~n ~budget:Bits.Width.Unbounded ~measure:Bits.Width.unbounded
    ~init:0

let test_memory_basics () =
  let m = make_memory ~n:3 () in
  Alcotest.(check int) "n" 3 (M.n m);
  M.write m ~pid:1 42;
  Alcotest.(check int) "read back" 42 (M.read m 1);
  Alcotest.(check int) "other registers untouched" 0 (M.read m 0);
  Alcotest.(check (array int)) "contents" [| 0; 42; 0 |] (M.contents m);
  Alcotest.(check int) "max bits = bits of 42" 6 (M.max_bits_written m)

let test_memory_budget () =
  let m = make_memory ~budget:(Bits.Width.Bounded 3) () in
  M.write m ~pid:0 7;
  Alcotest.check_raises "8 needs 4 bits"
    (Bits.Width.Overflow { budget = 3; needed = 4 })
    (fun () -> M.write m ~pid:0 8)

let test_memory_inputs_write_once () =
  let m = make_memory () in
  Alcotest.(check (option string)) "initially empty" None (M.read_input m 0);
  M.write_input m ~pid:0 "x";
  Alcotest.(check (option string)) "written" (Some "x") (M.read_input m 0);
  Alcotest.check_raises "second write rejected"
    (Invalid_argument "Memory.write_input: input register is write-once")
    (fun () -> M.write_input m ~pid:0 "y")

(* A tiny ping protocol: write own pid + 1, read the other register. *)
let ping ~me : (int, string, int) P.t =
  let* () = P.write (me + 1) in
  let* seen = P.read (1 - me) in
  P.return seen

let start ?record_trace () =
  S.start ?record_trace ~memory:(make_memory ()) ~programs:(fun pid -> ping ~me:pid) ()

let test_scheduler_step_semantics () =
  let s = start () in
  Alcotest.(check (list int)) "both running" [ 0; 1 ] (S.running s);
  S.step s 0;
  (* p0 wrote *)
  Alcotest.(check int) "p0 write visible" 1 (M.read (S.memory s) 0);
  S.step s 0;
  (* p0 read R1 = 0 and decided *)
  (match S.status s 0 with
  | S.Decided 0 -> ()
  | _ -> Alcotest.fail "p0 should have decided 0");
  S.step s 1;
  S.step s 1;
  (match S.status s 1 with
  | S.Decided 1 -> ()
  | _ -> Alcotest.fail "p1 should have decided 1 (saw p0's write)");
  Alcotest.(check int) "all halted" 0 (S.running_count s);
  Alcotest.(check int) "4 steps total" 4 (S.steps_taken s)

let test_scheduler_crash () =
  let s = start () in
  S.crash s 1;
  Alcotest.(check (list int)) "crashed list" [ 1 ] (S.crashed s);
  Alcotest.check_raises "stepping crashed raises"
    (Invalid_argument "Scheduler.step: process 1 halted") (fun () ->
      S.step s 1);
  S.run_round_robin s;
  Alcotest.(check int) "solo decided" 0 (S.running_count s);
  Alcotest.(check (array (option int))) "solo read 0" [| Some 0; None |]
    (S.decisions s)

let test_scheduler_trace_replay () =
  let s = start ~record_trace:true () in
  S.run_random (Bits.Rng.make 3) s;
  let schedule = Sched.Trace.schedule_of (S.trace s) in
  let s' = start () in
  S.run_schedule s' schedule;
  Alcotest.(check (array (option int))) "replay reproduces decisions"
    (S.decisions s) (S.decisions s')

let test_scheduler_output_continue () =
  (* A process that announces a decision and keeps writing forever. *)
  let rec server i : (int, string, int) P.t =
    P.Output (99, fun () -> let* () = P.write i in server (i + 1))
  in
  let memory = make_memory ~n:1 () in
  let s = S.start ~memory ~programs:(fun _ -> server 0) () in
  Alcotest.(check bool) "output immediately visible" true (S.all_output s);
  Alcotest.(check (array (option int))) "decision" [| Some 99 |]
    (S.decisions s);
  S.step s 0;
  S.step s 0;
  Alcotest.(check bool) "still running" true (S.running s = [ 0 ]);
  S.run_random ~until_outputs:true (Bits.Rng.make 1) s;
  Alcotest.(check bool) "until_outputs halts the driver" true true

(* Explore: the number of complete interleavings of two straight-line
   programs of lengths a and b is C(a+b, a). *)
let test_explore_counts () =
  let straight len : (int, string, unit) P.t =
    let rec go k = if k = 0 then P.return () else
      let* () = P.write k in
      go (k - 1)
    in
    go len
  in
  let choose a b =
    let rec fact n = if n = 0 then 1 else n * fact (n - 1) in
    fact (a + b) / (fact a * fact b)
  in
  List.iter
    (fun (a, b) ->
      let init () =
        S.start ~memory:(make_memory ())
          ~programs:(fun pid -> straight (if pid = 0 then a else b))
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "C(%d+%d,%d) interleavings" a b a)
        (choose a b)
        (Oracle.Walk.count ~init))
    [ (1, 1); (2, 2); (3, 2); (4, 4) ]

let test_explore_find () =
  let init () = start () in
  (* Find an execution where p1 saw p0's write. *)
  let found, _ =
    Oracle.Walk.exists ~init (fun s ->
        match (S.decisions s).(1) with Some 1 -> true | _ -> false)
  in
  Alcotest.(check bool) "found" true found;
  let found, complete =
    Oracle.Walk.exists ~init (fun s ->
        match (S.decisions s).(1) with Some 7 -> true | _ -> false)
  in
  Alcotest.(check bool) "absent outcome not found" false found;
  Alcotest.(check bool) "absence is conclusive (complete search)" true
    (complete = Sched.Explore.Complete)

let test_explore_crashes_include_solo () =
  (* With 1 crash allowed, solo executions of both processes appear. *)
  let solo_outcomes = ref [] in
  let (_ : Sched.Explore.result) =
    Sched.Explore.explore ~max_crashes:1
      ~init:(fun () -> start ())
      (fun s ->
        match (S.decisions s).(0), (S.decisions s).(1) with
        | Some v, None -> solo_outcomes := (`P0, v) :: !solo_outcomes
        | None, Some v -> solo_outcomes := (`P1, v) :: !solo_outcomes
        | _ -> ())
  in
  Alcotest.(check bool) "p0 solo reads 0" true
    (List.mem (`P0, 0) !solo_outcomes);
  Alcotest.(check bool) "p1 solo reads 0" true
    (List.mem (`P1, 0) !solo_outcomes)

(* Undo: stepping and crashing inside nested branches, then returning,
   restores programs, statuses, outputs, memory contents, step counts and
   the width statistic. *)
let undo_snap s =
  ( S.decisions s,
    M.contents (S.memory s),
    S.running s,
    S.crashed s,
    S.steps_taken s,
    (S.steps_of s 0, S.steps_of s 1),
    M.max_bits_written (S.memory s) )

let test_undo_rollback_across_crashes () =
  let s = start ~record_trace:true () in
  let root = undo_snap s in
  S.branch s 0 (fun () ->
      (* p0 wrote 1 *)
      let after_write = undo_snap s in
      (* Branch A: crash p1, run p0 to decision. *)
      S.branch_crash s 1 (fun () ->
          S.branch s 0 (fun () ->
              Alcotest.(check (list int)) "branch A: p1 crashed" [ 1 ]
                (S.crashed s);
              Alcotest.(check (array (option int)))
                "branch A: p0 decided solo" [| Some 0; None |]
                (S.decisions s)));
      Alcotest.(check bool) "undo to mid-point restores everything" true
        (undo_snap s = after_write);
      (* Branch B from the same mid-point: p1 runs and sees p0's write. *)
      S.branch s 1 (fun () ->
          S.branch s 1 (fun () ->
              match S.status s 1 with
              | S.Decided 1 -> ()
              | _ ->
                  Alcotest.fail "branch B: p1 should have seen p0's write")));
  Alcotest.(check bool) "undo to root restores everything" true
    (undo_snap s = root);
  Alcotest.(check int) "trace rewound too" 0 (List.length (S.trace s));
  (* The rewound state is still live: a full run completes normally. *)
  S.run_round_robin s;
  Alcotest.(check int) "rewound state replays" 0 (S.running_count s)

let test_undo_rollback_write_over () =
  (* Overwrites and width stats rewind: write a wide value, undo, and the
     memory reports the narrow past, not the wide future. *)
  let m = make_memory () in
  let s =
    S.start ~memory:m
      ~programs:(fun _ ->
        let* () = P.write 1 in
        let* () = P.write 255 in
        P.return ())
      ()
  in
  S.step s 0;
  S.branch s 0 (fun () ->
      Alcotest.(check int) "wide value written" 255 (M.read m 0);
      Alcotest.(check int) "8 bits seen" 8 (M.max_bits_written m));
  Alcotest.(check int) "register restored" 1 (M.peek m 0);
  Alcotest.(check int) "width stat restored" 1 (M.max_bits_written m)

(* The acceptance workload: 3 straight-line writers, 4 steps each. The
   engine must (a) reach exactly the naive walker's terminal states and
   (b) expand >= 5x fewer nodes. *)
let writers_3x4_init () =
  let straight len : (int, string, unit) P.t =
    let rec go k =
      if k = 0 then P.return ()
      else
        let* () = P.write k in
        go (k - 1)
    in
    go len
  in
  S.start ~memory:(make_memory ~n:3 ()) ~programs:(fun _ -> straight 4) ()

let terminal_signature s =
  ( Array.to_list (S.decisions s),
    Array.to_list (M.contents (S.memory s)),
    S.crashed s )

let test_explore_reductions_5x () =
  let init = writers_3x4_init in
  let naive = ref [] in
  Oracle.Walk.interleavings ~init (fun s ->
      naive := terminal_signature s :: !naive);
  Alcotest.(check int) "naive schedule count: 12!/(4!)^3" 34650
    (List.length !naive);
  let raw =
    (Sched.Explore.explore ~dedup:false ~por:false ~init (fun _ -> ()))
      .Sched.Explore.stats
  in
  Alcotest.(check int) "raw engine = naive tree" 34650
    raw.Sched.Explore.terminals;
  let opt_states = ref [] in
  let opt =
    (Sched.Explore.explore ~init (fun s ->
         opt_states := terminal_signature s :: !opt_states))
      .Sched.Explore.stats
  in
  let set l = List.sort_uniq compare l in
  Alcotest.(check bool) "same reachable terminal states" true
    (set !naive = set !opt_states);
  Alcotest.(check int) "each distinct state visited once"
    (List.length (set !naive))
    (List.length !opt_states);
  Alcotest.(check bool)
    (Printf.sprintf ">=5x fewer nodes (%d vs %d)" opt.Sched.Explore.nodes
       raw.Sched.Explore.nodes)
    true
    (5 * opt.Sched.Explore.nodes <= raw.Sched.Explore.nodes)

let test_explore_canonical_crash_order () =
  (* Two 1-step writers, up to 2 crashes. Canonical (increasing-pid) crash
     order enumerates: 2 crash-free schedules, 2+2 single-crash schedules,
     and exactly ONE double-crash schedule (crash 0 then crash 1) — the
     pid-swapped duplicate is gone. *)
  let init () =
    S.start ~memory:(make_memory ())
      ~programs:(fun pid ->
        let* () = P.write (pid + 1) in
        P.return ())
      ()
  in
  let raw =
    (Sched.Explore.explore ~max_crashes:2 ~dedup:false ~por:false ~init
       (fun _ -> ()))
      .Sched.Explore.stats
  in
  Alcotest.(check int) "7 canonical schedules" 7 raw.Sched.Explore.terminals;
  let states = ref [] in
  let opt =
    (Sched.Explore.explore ~max_crashes:2 ~init (fun s ->
         states := terminal_signature s :: !states))
      .Sched.Explore.stats
  in
  Alcotest.(check int) "4 distinct terminal states" 4
    opt.Sched.Explore.terminals;
  Alcotest.(check int) "all distinct" 4
    (List.length (List.sort_uniq compare !states));
  (* And the naive crash walker agrees with the raw engine. *)
  let naive = ref 0 in
  Oracle.Walk.interleavings ~max_crashes:2 ~init
    (fun _ -> incr naive);
  Alcotest.(check int) "naive crash walker canonical too" 7 !naive

(* Budgets: a node-capped run stops with a serializable frontier, and
   resuming from that frontier visits exactly the schedules the budgeted
   run abandoned — chained segments partition the full enumeration. Run
   with dedup/POR off so terminal counts are exact (one per schedule). *)
let test_budget_resume_partitions () =
  let init = writers_3x4_init in
  let full = ref [] in
  let r =
    Sched.Explore.explore ~dedup:false ~por:false ~init (fun s ->
        full := terminal_signature s :: !full)
  in
  Alcotest.(check bool) "unbudgeted run complete" true
    (r.Sched.Explore.outcome = Sched.Explore.Complete);
  Alcotest.(check int) "unbudgeted terminal count" 34650
    (List.length !full);
  let budget = Sched.Budget.make ~max_nodes:5_000 () in
  let segments = ref 0 in
  let collected = ref [] in
  let rec drain resume =
    incr segments;
    let r =
      Sched.Explore.explore ~dedup:false ~por:false ~budget ?resume ~init
        (fun s -> collected := terminal_signature s :: !collected)
    in
    match r.Sched.Explore.outcome with
    | Sched.Explore.Complete -> ()
    | Sched.Explore.Exhausted { frontier; reason } ->
        Alcotest.(check bool) "stopped by the node cap" true
          (reason = Sched.Budget.Node_cap);
        Alcotest.(check bool) "frontier is nonempty" true (frontier <> []);
        (* The checkpoint survives serialization. *)
        (match
           Sched.Budget.frontier_of_string
             (Sched.Budget.frontier_to_string frontier)
         with
        | Ok f -> Alcotest.(check bool) "frontier round-trips" true (f = frontier)
        | Error e -> Alcotest.fail e);
        drain (Some frontier)
  in
  drain None;
  Alcotest.(check bool)
    (Printf.sprintf "budget forced several segments (%d)" !segments)
    true (!segments > 1);
  Alcotest.(check int) "segments partition the terminal count" 34650
    (List.length !collected);
  Alcotest.(check bool) "same multiset of terminal states" true
    (List.sort compare !full = List.sort compare !collected)

let test_budget_node_cap () =
  let r =
    Sched.Explore.explore ~dedup:false ~por:false
      ~budget:(Sched.Budget.make ~max_nodes:1000 ())
      ~init:writers_3x4_init
      (fun _ -> ())
  in
  Alcotest.(check int) "expanded exactly the cap" 1000
    r.Sched.Explore.stats.Sched.Explore.nodes;
  match r.Sched.Explore.outcome with
  | Sched.Explore.Exhausted { reason = Sched.Budget.Node_cap; frontier } ->
      Alcotest.(check bool) "rest of the tree on the frontier" true
        (frontier <> [])
  | _ -> Alcotest.fail "expected node-cap exhaustion"

let test_budget_deadline_fake_clock () =
  (* A deterministic clock that advances 10ms per read: the 0.5s deadline
     trips after ~50 reads (the monitor samples it every 64th poll), long
     before the raw 3x4 tree is done. *)
  let now = ref 0. in
  let clock () =
    now := !now +. 0.01;
    !now
  in
  let r =
    Sched.Explore.explore ~dedup:false ~por:false
      ~budget:(Sched.Budget.make ~deadline:0.5 ())
      ~clock ~init:writers_3x4_init
      (fun _ -> ())
  in
  match r.Sched.Explore.outcome with
  | Sched.Explore.Exhausted { reason = Sched.Budget.Deadline; frontier } ->
      Alcotest.(check bool) "frontier is nonempty" true (frontier <> [])
  | _ -> Alcotest.fail "expected deadline exhaustion"

let test_frontier_of_string_rejects_garbage () =
  (match Sched.Budget.frontier_of_string "s0 x1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad token accepted");
  (match Sched.Budget.frontier_of_string "s0 c\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing pid accepted");
  (* The empty path (budget tripped at the root) round-trips. *)
  match
    Sched.Budget.frontier_of_string (Sched.Budget.frontier_to_string [ [] ])
  with
  | Ok [ [] ] -> ()
  | Ok _ -> Alcotest.fail "empty path did not round-trip"
  | Error e -> Alcotest.fail e

(* Domain-parallel exploration (Sched.Par). Tiny seed segments
   ([seed_nodes]) force the frontier fan-out even on these small trees;
   the visitor folds are pure (per-unit accumulators, list merge), as the
   pool requires. *)

let writers_init ~n ~len () =
  let straight len : (int, string, unit) P.t =
    let rec go k =
      if k = 0 then P.return ()
      else
        let* () = P.write k in
        go (k - 1)
    in
    go len
  in
  S.start ~memory:(make_memory ~n ()) ~programs:(fun _ -> straight len) ()

let collect_fold s acc = terminal_signature s :: acc

(* A random run driven in slices of [max_steps] (how a deadline-aware
   caller drives a long run) takes the same schedule as one call with the
   whole step budget: each slice re-checks crash points before stepping
   and continues the same rng stream. *)
let test_run_random_slices () =
  let crashes = [ (1, 9); (2, 0) ] in
  let rec writes k : (int, string, int) P.t =
    if k = 0 then P.return 0
    else
      let* () = P.write k in
      writes (k - 1)
  in
  let run slices =
    let s =
      S.start ~record_trace:true ~memory:(make_memory ~n:3 ())
        ~programs:(fun _ -> writes 40)
        ()
    in
    let rng = Bits.Rng.make 17 in
    List.iter (fun max_steps -> S.run_random ~max_steps ~crashes rng s) slices;
    (S.trace s, List.init 3 (S.status s))
  in
  Alcotest.(check bool) "seven slices = one call" true
    (run [ 50 ] = run [ 7; 7; 7; 7; 7; 7; 8 ]);
  Alcotest.(check bool) "a run cut short stops where the budget does" true
    (fst (run [ 30 ]) = fst (run [ 10; 10; 10 ]))

(* The list-based random driver [Scheduler.run_random] replaced: each
   round builds the running list once to fire the due crash triggers and
   once more to [Rng.pick] from. Kept here as the differential reference
   for the allocation-free driver. *)
let reference_run_random ?(max_steps = 1_000_000) ?(crashes = [])
    ?(until_outputs = false) rng t =
  let crash_after = Array.make (S.n t) max_int in
  List.iter (fun (pid, after) -> crash_after.(pid) <- after) crashes;
  let maybe_crash pid =
    S.status t pid = S.Running && S.steps_of t pid >= crash_after.(pid)
  in
  let budget = ref max_steps in
  let rec loop () =
    List.iter (fun pid -> if maybe_crash pid then S.crash t pid) (S.running t);
    if not (until_outputs && S.all_output t) then
      match S.running t with
      | [] -> ()
      | procs ->
          if !budget > 0 then begin
            S.step t (Bits.Rng.pick rng procs);
            decr budget;
            loop ()
          end
  in
  loop ()

type driver_op = W of int | R of int | O | WI | RI of int

(* A random run's inputs: per-process straight-line programs whose
   decisions sum the values they read (so they depend on the schedule),
   a crash pattern, [until_outputs], and the [max_steps] slices the run is
   driven in ([None] = the default budget). *)
type driver_case = {
  programs : driver_op list array;
  crash_points : (int * int) list;
  until_outputs : bool;
  slices : int option list;
  seed : int;
}

let driver_program me ops : (int, string, int) P.t =
  let rec go acc = function
    | [] -> P.Return acc
    | W v :: rest -> P.Write (v, fun () -> go acc rest)
    | R j :: rest -> P.Read (j, fun v -> go (acc + v) rest)
    | O :: rest -> P.Output (acc, fun () -> go acc rest)
    | WI :: rest -> P.Write_input (string_of_int me, fun () -> go acc rest)
    | RI j :: rest ->
        P.Read_input
          ( j,
            fun i -> go (acc + Option.fold ~none:0 ~some:int_of_string i) rest
          )
  in
  go (100 * me) ops

(* Drive one case with [run] and observe everything a schedule decides:
   the trace (pid sequence, crash points, decide events), statuses, step
   counts, decisions and the rng stream's next draw. *)
let drive_case run c =
  let n = Array.length c.programs in
  let s =
    S.start ~record_trace:true ~memory:(make_memory ~n ())
      ~programs:(fun pid -> driver_program pid c.programs.(pid))
      ()
  in
  let rng = Bits.Rng.make c.seed in
  List.iter (fun max_steps -> run max_steps c rng s) c.slices;
  ( S.trace s,
    List.init n (S.status s),
    List.init n (S.steps_of s),
    S.decisions s,
    Bits.Rng.bits53 rng )

let driver max_steps c rng s =
  S.run_random ?max_steps ~crashes:c.crash_points ~until_outputs:c.until_outputs
    rng s

let reference_driver max_steps c rng s =
  reference_run_random ?max_steps ~crashes:c.crash_points
    ~until_outputs:c.until_outputs rng s

let driver_agrees c = drive_case driver c = drive_case reference_driver c

let gen_driver_case =
  let open QCheck.Gen in
  (* One case in ten runs more processes than a mask has bits. *)
  let* n = frequency [ (9, int_range 1 5); (1, return (Sys.int_size + 1)) ] in
  let op =
    frequency
      [ (3, map (fun v -> W v) (int_range 0 7));
        (3, map (fun j -> R j) (int_range 0 (n - 1)));
        (1, map (fun j -> RI j) (int_range 0 (n - 1)));
        (2, return O) ]
  in
  (* Input registers are write-once: at most one input write per
     program, anywhere in it. *)
  let program =
    let* ops = list_size (int_range 0 10) op in
    let* input = bool in
    let+ at = int_range 0 (List.length ops) in
    if input then
      List.filteri (fun i _ -> i < at) ops
      @ (WI :: List.filteri (fun i _ -> i >= at) ops)
    else ops
  in
  let* programs = array_repeat n program in
  (* Crash points inside the programs' lengths, so triggers meet decides. *)
  let* crash_points =
    list_size (int_range 0 3) (pair (int_range 0 (n - 1)) (int_range 0 8))
  in
  let* until_outputs = bool in
  let* slices =
    list_size (int_range 1 4)
      (frequency [ (4, map Option.some (int_range 0 40)); (1, return None) ])
  in
  let+ seed = int_range 0 100_000 in
  { programs; crash_points; until_outputs; slices; seed }

let print_driver_case c =
  let op = function
    | W v -> Printf.sprintf "w%d" v
    | R j -> Printf.sprintf "r%d" j
    | O -> "out"
    | WI -> "wi"
    | RI j -> Printf.sprintf "ri%d" j
  in
  let program ops = String.concat " " (List.map op ops) in
  Printf.sprintf
    "n=%d programs=[%s] crashes=[%s] until_outputs=%b slices=[%s] seed=%d"
    (Array.length c.programs)
    (String.concat "; " (Array.to_list (Array.map program c.programs)))
    (String.concat "; "
       (List.map (fun (p, a) -> Printf.sprintf "%d@%d" p a) c.crash_points))
    c.until_outputs
    (String.concat "; "
       (List.map
          (function None -> "default" | Some m -> string_of_int m)
          c.slices))
    c.seed

let prop_run_random_matches_reference =
  QCheck.Test.make ~name:"run_random = list-based reference driver" ~count:3000
    (QCheck.make ~print:print_driver_case gen_driver_case)
    driver_agrees

(* p1 outputs before any step; p0 outputs on its first step, the step
   count at which its crash trigger is due. The next round fires the
   trigger before [until_outputs] looks, so p0 ends crashed, with its
   decision announced, and the run stops there. *)
let test_run_random_crash_meets_decide () =
  let c =
    {
      programs = [| [ W 1; O; W 2 ]; [ O; W 4 ] |];
      crash_points = [ (0, 1) ];
      until_outputs = true;
      slices = [ None ];
      seed = 5;
    }
  in
  Alcotest.(check bool) "agrees with the reference" true (driver_agrees c);
  let _, statuses, steps, decisions, _ = drive_case driver c in
  Alcotest.(check bool) "p0 crashed after deciding" true
    (List.hd statuses = S.Crashed && decisions.(0) <> None);
  Alcotest.(check int) "p0 took one step" 1 (List.hd steps)

(* [branch] against forward replay. Random programs (the driver's ops,
   plus an input write and input reads) are walked along random nested
   step and crash choices through [branch]/[branch_crash], traced or not,
   on untracked or width-tracked memory. On entry to every branch the
   state must equal a fresh start with the same choices applied forward,
   and after every branch returns it must equal what it was before. *)
type branch_case = {
  ops : driver_op list array;
  traced : bool;
  tracked : bool;
  walk_seed : int;
}

let branch_snapshot s =
  let n = S.n s in
  let mem = S.memory s in
  ( S.decisions s,
    M.contents mem,
    List.init n (M.read_input mem),
    List.init n (S.status s),
    S.running_mask s,
    List.init n (S.steps_of s),
    S.steps_taken s,
    M.max_bits_written mem,
    S.trace s,
    List.init n (S.peek s) )

let branch_agrees c =
  let n = Array.length c.ops in
  let fresh () =
    let memory =
      if c.tracked then make_memory ~n () else untracked_memory n
    in
    S.start ~record_trace:c.traced ~memory
      ~programs:(fun pid -> driver_program pid c.ops.(pid))
      ()
  in
  let s = fresh () in
  let rng = Bits.Rng.make c.walk_seed in
  let budget = ref 60 and ok = ref true in
  let rec walk path =
    let f = fresh () in
    List.iter
      (function `Step p -> S.step f p | `Crash p -> S.crash f p)
      (List.rev path);
    if branch_snapshot f <> branch_snapshot s then ok := false;
    for _ = 1 to 1 + Bits.Rng.int rng 2 do
      match S.running s with
      | _ :: _ as running when !budget > 0 ->
          decr budget;
          let p = Bits.Rng.pick rng running in
          let before = branch_snapshot s in
          if Bits.Rng.int rng 5 = 0 then
            S.branch_crash s p (fun () -> walk (`Crash p :: path))
          else S.branch s p (fun () -> walk (`Step p :: path));
          if branch_snapshot s <> before then ok := false
      | _ -> ()
    done
  in
  walk [];
  !ok

let gen_branch_case =
  let open QCheck.Gen in
  let* n = int_range 1 4 in
  let op =
    frequency
      [ (3, map (fun v -> W v) (int_range 0 300));
        (3, map (fun j -> R j) (int_range 0 (n - 1)));
        (1, map (fun j -> RI j) (int_range 0 (n - 1)));
        (2, return O) ]
  in
  let program =
    let* input = bool in
    let+ ops = list_size (int_range 0 8) op in
    if input then WI :: ops else ops
  in
  let* ops = array_repeat n program in
  let* traced = bool in
  let* tracked = bool in
  let+ walk_seed = int_range 0 100_000 in
  { ops; traced; tracked; walk_seed }

let print_branch_case c =
  Printf.sprintf "%s traced=%b tracked=%b walk_seed=%d"
    (print_driver_case
       { programs = c.ops; crash_points = []; until_outputs = false;
         slices = []; seed = 0 })
    c.traced c.tracked c.walk_seed

let prop_branch_matches_forward_replay =
  QCheck.Test.make ~name:"branch = forward replay" ~count:500
    (QCheck.make ~print:print_branch_case gen_branch_case)
    branch_agrees

let test_par_differential_sets () =
  let init = writers_3x4_init in
  let naive = ref [] in
  Oracle.Walk.interleavings ~init (fun s ->
      naive := terminal_signature s :: !naive);
  let seq = ref [] in
  ignore
    (Sched.Explore.explore ~init (fun s ->
         seq := terminal_signature s :: !seq));
  let par =
    Sched.Par.explore ~jobs:4 ~seed_nodes:16 ~init ~fold:collect_fold
      ~merge:( @ ) []
  in
  let set l = List.sort_uniq compare l in
  Alcotest.(check bool) "went parallel" true (par.Sched.Par.units > 0);
  Alcotest.(check bool) "complete" true
    (par.Sched.Par.outcome = Sched.Explore.Complete);
  Alcotest.(check bool) "parallel set = sequential set" true
    (set par.Sched.Par.value = set !seq);
  Alcotest.(check bool) "parallel set = naive set" true
    (set par.Sched.Par.value = set !naive)

let test_par_differential_crashes () =
  (* 3 writers x 2 steps, up to 1 crash: small enough for the naive crash
     walker, branchy enough to split across units. *)
  let init = writers_init ~n:3 ~len:2 in
  let naive = ref [] in
  Oracle.Walk.interleavings ~max_crashes:1 ~init
    (fun s -> naive := terminal_signature s :: !naive);
  let seq = ref [] in
  ignore
    (Sched.Explore.explore ~max_crashes:1 ~init (fun s ->
         seq := terminal_signature s :: !seq));
  let par =
    Sched.Par.explore ~max_crashes:1 ~jobs:4 ~seed_nodes:8 ~init
      ~fold:collect_fold ~merge:( @ ) []
  in
  let set l = List.sort_uniq compare l in
  Alcotest.(check bool) "went parallel" true (par.Sched.Par.units > 0);
  Alcotest.(check bool) "parallel set = sequential set" true
    (set par.Sched.Par.value = set !seq);
  Alcotest.(check bool) "parallel set = naive set" true
    (set par.Sched.Par.value = set !naive)

let test_par_raw_partition_exact () =
  (* Reductions off: the frontier partitions the raw tree, so the merged
     stats record equals the sequential one field-for-field — nodes,
     terminals, peak depth, all of it. *)
  let init = writers_3x4_init in
  let seq =
    Sched.Explore.explore ~dedup:false ~por:false ~init (fun _ -> ())
  in
  let par =
    Sched.Par.explore ~dedup:false ~por:false ~jobs:3 ~seed_nodes:64 ~init
      ~fold:(fun _ k -> k + 1)
      ~merge:( + ) 0
  in
  Alcotest.(check bool) "went parallel" true (par.Sched.Par.units > 0);
  Alcotest.(check int) "exactly the naive schedule count" 34650
    par.Sched.Par.value;
  Alcotest.(check bool) "complete" true
    (par.Sched.Par.outcome = Sched.Explore.Complete);
  Alcotest.(check bool) "stats partition exactly" true
    (par.Sched.Par.stats = seq.Sched.Explore.stats)

let test_par_budget_resume () =
  (* A node-capped parallel run exhausts with a merged frontier; draining
     it through Par.explore again partitions the enumeration, exactly as
     the sequential resume loop does. *)
  let init = writers_3x4_init in
  let full = ref [] in
  ignore
    (Sched.Explore.explore ~dedup:false ~por:false ~init (fun s ->
         full := terminal_signature s :: !full));
  let collected = ref [] in
  let segments = ref 0 in
  let rec drain resume =
    incr segments;
    if !segments > 64 then Alcotest.fail "resume loop did not converge";
    let r =
      Sched.Par.explore ~dedup:false ~por:false ~jobs:2 ~seed_nodes:64
        ~budget:(Sched.Budget.make ~max_nodes:4_000 ())
        ?resume ~init ~fold:collect_fold ~merge:( @ ) []
    in
    collected := r.Sched.Par.value @ !collected;
    match r.Sched.Par.outcome with
    | Sched.Explore.Complete -> ()
    | Sched.Explore.Exhausted { frontier; reason = _ } ->
        Alcotest.(check bool) "frontier nonempty" true (frontier <> []);
        drain (Some frontier)
  in
  drain None;
  Alcotest.(check bool)
    (Printf.sprintf "budget forced several segments (%d)" !segments)
    true (!segments > 1);
  Alcotest.(check int) "segments partition the terminal count" 34650
    (List.length !collected);
  Alcotest.(check bool) "same multiset of terminal states" true
    (List.sort compare !full = List.sort compare !collected)

(* A node-capped parallel run is a function of the workload: every unit
   runs under the cap the seed pass left, and results are admitted in
   unit-index order, so the stats, the visitor value and the leftover
   frontier do not depend on which units finish first. The fold spins a
   random while per terminal so that the finishing order varies from run
   to run. *)
let test_par_capped_reproducible () =
  let init = writers_init ~n:3 ~len:2 in
  let rng = Random.State.make_self_init () in
  let run () =
    let r =
      Sched.Par.explore ~max_crashes:1 ~dedup:false ~por:false ~jobs:2
        ~seed_nodes:8
        ~budget:(Sched.Budget.make ~max_nodes:300 ())
        ~init
        ~fold:(fun s acc ->
          for _ = 1 to Random.State.int rng 2_000 do
            ignore (Sys.opaque_identity ())
          done;
          collect_fold s acc)
        ~merge:( @ ) []
    in
    let frontier =
      match r.Sched.Par.outcome with
      | Sched.Explore.Complete -> ""
      | Sched.Explore.Exhausted { frontier; reason } ->
          Sched.Budget.stop_reason_to_string reason ^ "\n"
          ^ Sched.Budget.frontier_to_string frontier
    in
    (r.Sched.Par.stats, r.Sched.Par.value, frontier)
  in
  let first = run () in
  let _, _, frontier = first in
  Alcotest.(check bool) "the cap trips" true (frontier <> "");
  for i = 2 to 10 do
    Alcotest.(check bool)
      (Printf.sprintf "run %d = run 1" i)
      true
      (run () = first)
  done

(* The unit runner's contract: [k] sees units in index order on the
   calling domain; at jobs = 1 a raising [k] leaves later units unrun;
   at jobs > 1 a failing [f] at unit j follows [k] for exactly 0..j-1. *)
exception Unit_failed of int

let test_par_run_units_contract () =
  let units = Array.init 8 Fun.id in
  List.iter
    (fun jobs ->
      let seen = ref [] in
      Sched.Par.run_units ~jobs ~units
        (fun u -> u * u)
        (fun i r -> seen := (i, r) :: !seen);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "jobs %d: k in unit order" jobs)
        (List.init 8 (fun i -> (i, i * i)))
        (List.rev !seen))
    [ 1; 2 ];
  let f_calls = ref 0 in
  let k_calls = ref [] in
  (match
     Sched.Par.run_units ~jobs:1 ~units
       (fun u ->
         incr f_calls;
         u)
       (fun i _ ->
         k_calls := i :: !k_calls;
         if i = 3 then raise (Unit_failed i))
   with
  | () -> Alcotest.fail "jobs 1: the raising k did not propagate"
  | exception Unit_failed 3 -> ());
  Alcotest.(check int) "jobs 1: no f after the raising k" 4
    !f_calls;
  Alcotest.(check (list int)) "jobs 1: k stopped at the raise" [ 0; 1; 2; 3 ]
    (List.rev !k_calls);
  let k_calls = ref [] in
  (match
     Sched.Par.run_units ~jobs:2 ~units
       (fun u -> if u = 5 || u = 6 then raise (Unit_failed u) else u)
       (fun i _ -> k_calls := i :: !k_calls)
   with
  | () -> Alcotest.fail "jobs 2: the failing f did not propagate"
  | exception Unit_failed j ->
      Alcotest.(check int) "jobs 2: the lowest-index failure wins" 5 j);
  Alcotest.(check (list int)) "jobs 2: k ran for every unit below it"
    [ 0; 1; 2; 3; 4 ] (List.rev !k_calls)

(* Double-collect snapshots: under concurrent writers, a returned snapshot
   was instantaneously present in memory. We check the weaker testable
   property: two sequential snapshots by the same process are ordered by
   containment-in-time (each register's value only moves forward). *)
let test_snapshot_clean () =
  let writer ~me : (int, string, unit) P.t =
    let rec go k =
      if k = 0 then P.return ()
      else
        let* () = P.write ((10 * (me + 1)) + k) in
        go (k - 1)
    in
    go 3
  in
  let scanner : (int, string, int array * int array) P.t =
    let* s1 = Sched.Snapshots.double_collect ~n:3 ~equal:Int.equal in
    let* s2 = Sched.Snapshots.double_collect ~n:3 ~equal:Int.equal in
    P.return (s1, s2)
  in
  for seed = 0 to 49 do
    let memory = make_memory ~n:3 () in
    let s =
      S.start ~memory
        ~programs:(fun pid ->
          if pid = 2 then P.map (fun v -> `Scan v) scanner
          else P.map (fun () -> `Done) (writer ~me:pid))
        ()
    in
    S.run_random (Bits.Rng.make seed) s;
    match (S.decisions s).(2) with
    | Some (`Scan (s1, s2)) ->
        (* Writers only count down; each register value in s2 must not be
           older than in s1 (values increase... writers write decreasing k,
           so later values are smaller within a writer). Check stability:
           the zero registers can only change to non-zero. *)
        Array.iteri
          (fun j v1 ->
            if v1 <> 0 && s2.(j) = 0 then
              Alcotest.failf "seed %d: register %d went backwards" seed j)
          s1
    | _ -> Alcotest.fail "scanner undecided"
  done

(* Adversarial schedulers. *)

let test_adversary_lockstep_alg1 () =
  (* Lockstep forces Algorithm 1 through all k iterations: exactly 2k+3
     steps per process. *)
  List.iter
    (fun k ->
      let algorithm = Core.Alg1_one_bit.algorithm ~k in
      let s =
        S.start
          ~memory:(algorithm.Tasks.Harness.memory ())
          ~programs:(fun pid ->
            algorithm.Tasks.Harness.program ~pid ~input:pid)
          ()
      in
      Sched.Adversary.run Sched.Adversary.lockstep s;
      Alcotest.(check int)
        (Printf.sprintf "p0 steps (k=%d)" k)
        ((2 * k) + 3) (S.steps_of s 0);
      Alcotest.(check int)
        (Printf.sprintf "p1 steps (k=%d)" k)
        ((2 * k) + 3) (S.steps_of s 1))
    [ 1; 3; 6 ]

let test_adversary_solo_then () =
  (* Solo-then: process 0 decides before process 1 takes any step. *)
  let algorithm = Core.Alg1_one_bit.algorithm ~k:3 in
  let s =
    S.start
      ~memory:(algorithm.Tasks.Harness.memory ())
      ~programs:(fun pid -> algorithm.Tasks.Harness.program ~pid ~input:pid)
      ()
  in
  let p1_steps_at_p0_decision = ref (-1) in
  let adversary view =
    (match S.status s 0 with
    | S.Decided _ when !p1_steps_at_p0_decision < 0 ->
        p1_steps_at_p0_decision := view.Sched.Adversary.steps_of 1
    | _ -> ());
    if List.mem 0 view.running then 0 else Sched.Adversary.lockstep view
  in
  Sched.Adversary.run adversary s;
  Alcotest.(check int) "p1 had taken no steps" 0 !p1_steps_at_p0_decision;
  match (S.decisions s).(0) with
  | Some d ->
      Alcotest.(check bool) "solo p0 decides its input 0" true
        (Bits.Rational.equal d Bits.Rational.zero)
  | None -> Alcotest.fail "p0 undecided"

let test_adversary_rejects_bad_pick () =
  let s = start () in
  Alcotest.check_raises "picking halted process raises"
    (Invalid_argument "Adversary.run: pid 7 is not running") (fun () ->
      Sched.Adversary.run (fun _ -> 7) s)

(* {2 Compiled programs: dedup hashing, code sharing, stateful code} *)

let signature st =
  ( Array.to_list (S.decisions st),
    Array.to_list (M.contents (S.memory st)),
    S.crashed st )

(* The dedup key used to be [Hashtbl.hash] over the per-process
   observation histories. The default hash inspects at most 10
   meaningful nodes, so histories deeper than a handful of cells all
   collide — and a hash-keyed visited set then merges distinct states
   silently. The explorer now folds every cell into a Zobrist hash, with
   [Zobrist.value_hash] ([Hashtbl.hash_param 256 256]) for cell values;
   this pins the difference at the value level. *)
let test_zobrist_beats_hash_truncation () =
  let deep tail = [ 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; 9; tail ] in
  let h1 = deep 1 and h2 = deep 2 in
  Alcotest.(check bool) "histories differ" false (h1 = h2);
  Alcotest.(check int) "Hashtbl.hash truncates: deep histories collide"
    (Hashtbl.hash h1) (Hashtbl.hash h2);
  Alcotest.(check bool) "Zobrist value hash sees past the 10th node" false
    (Sched.Zobrist.value_hash h1 = Sched.Zobrist.value_hash h2)

(* End to end: proc 0's observation history is 12 cells deep, so a
   10-node-truncated hash of the combined histories never reaches the
   cell where proc 1 recorded its read — under the old key, all 13
   distinct terminal states (one per snapshot proc 1 can observe) hash
   alike. The deduped engine must still report exactly the raw terminal
   set. *)
let test_dedup_distinguishes_deep_histories () =
  let writer =
    let rec go k =
      if k > 12 then P.Return (-1) else P.Write (k, fun () -> go (k + 1))
    in
    go 1
  in
  let reader = P.Read (0, fun v -> P.Return v) in
  let init () =
    S.start ~memory:(untracked_memory 2)
      ~programs:(fun pid -> if pid = 0 then writer else reader)
      ()
  in
  let raw = ref [] in
  ignore
    (Sched.Explore.explore ~dedup:false ~por:false ~init (fun st ->
         raw := signature st :: !raw)
      : Sched.Explore.result);
  let opt = ref [] in
  ignore
    (Sched.Explore.explore ~init (fun st -> opt := signature st :: !opt)
      : Sched.Explore.result);
  let set l = List.sort_uniq compare l in
  Alcotest.(check int) "reader observes 13 distinct snapshots" 13
    (List.length (set !raw));
  Alcotest.(check bool) "dedup+por terminal set = raw" true
    (set !opt = set !raw)

(* Undo data lives in the branching frames, so a path is as deep as the
   recursion that walks it. 10,000 nested branches — the explorer's
   default [max_steps] — must rewind to the root and restore program,
   memory and statistics exactly. *)
let test_deep_branch_rewinds () =
  let n_writes = 10_000 in
  let prog =
    let rec go k =
      if k = 0 then P.Return () else P.Write (k, fun () -> go (k - 1))
    in
    go n_writes
  in
  let s = S.start ~memory:(make_memory ~n:1 ()) ~programs:(fun _ -> prog) () in
  let bottom = ref false in
  let rec descend () =
    if S.status s 0 = S.Running then S.branch s 0 descend
    else begin
      bottom := true;
      Alcotest.(check int) "all steps taken" n_writes (S.steps_taken s);
      Alcotest.(check int) "register holds the last write" 1
        (M.peek (S.memory s) 0)
    end
  in
  descend ();
  Alcotest.(check bool) "the path reached its end" true !bottom;
  Alcotest.(check int) "steps rewound" 0 (S.steps_taken s);
  Alcotest.(check int) "register restored" 0 (M.peek (S.memory s) 0);
  Alcotest.(check int) "max-width statistic restored" 0
    (M.max_bits_written (S.memory s));
  Alcotest.(check bool) "process running again" true (S.status s 0 = S.Running);
  (* the rewound state is live: replaying decides again *)
  while S.status s 0 = S.Running do
    S.step s 0
  done;
  Alcotest.(check bool) "replay decides" true (S.all_output s)

(* One compiled artifact, many runs: [start_compiled] over the same
   [Program.Compiled.code] must explore exactly like compiling afresh,
   and after one full exploration the position memo is complete — later
   runs resolve no new slots. *)
let test_compiled_code_shared_across_runs () =
  let prog pid =
    let other = 1 - pid in
    P.Write (pid + 1, fun () -> P.Read (other, fun v -> P.Return v))
  in
  let codes = Array.init 2 (fun pid -> P.compile (prog pid)) in
  let explore_with init =
    let acc = ref [] in
    let stats =
      (Sched.Explore.explore ~dedup:false ~por:false ~init (fun st ->
           acc := signature st :: !acc))
        .Sched.Explore.stats
    in
    (List.sort compare !acc, stats)
  in
  let fresh () =
    S.start ~memory:(untracked_memory 2) ~programs:prog ()
  in
  let shared () =
    S.start_compiled ~memory:(untracked_memory 2)
      ~programs:(fun pid -> codes.(pid))
      ()
  in
  let sigs_fresh, stats_fresh = explore_with fresh in
  let sigs_shared, stats_shared = explore_with shared in
  Alcotest.(check bool) "shared code, same terminal multiset" true
    (sigs_shared = sigs_fresh);
  Alcotest.(check bool) "shared code, same stats" true
    (stats_shared = stats_fresh);
  let len_after_first = P.Compiled.length codes.(0) + P.Compiled.length codes.(1) in
  let sigs_again, stats_again = explore_with shared in
  Alcotest.(check bool) "second shared run identical" true
    (sigs_again = sigs_fresh && stats_again = stats_fresh);
  Alcotest.(check int) "memo complete: no new slots on reuse" len_after_first
    (P.Compiled.length codes.(0) + P.Compiled.length codes.(1))

(* The fused walk ([Scheduler.raw_dfs]) and the general walk through
   [Scheduler.branch] must be observationally identical. [record_trace]
   forces the engine off the fused path, so the same protocol run both
   ways is a direct differential — stats field-for-field, terminals and
   their width statistic as multisets, with and without crash branching,
   on untracked and width-tracked memory. *)
let test_fused_equals_branch () =
  let prog pid =
    let other = 1 - pid in
    P.Write (1, fun () ->
        P.Read (other, fun v ->
            P.Write (v + 2, fun () ->
                P.Read (other, fun w -> P.Return (v, w)))))
  in
  let init memory ~record_trace () =
    S.start ~record_trace ~memory:(memory ()) ~programs:prog ()
  in
  List.iter
    (fun (max_crashes, memory) ->
      let run record_trace =
        let acc = ref [] in
        let stats =
          (Sched.Explore.explore ~max_crashes ~dedup:false ~por:false
             ~init:(init memory ~record_trace) (fun st ->
               acc := (signature st, M.max_bits_written (S.memory st)) :: !acc))
            .Sched.Explore.stats
        in
        (List.sort compare !acc, stats)
      in
      let sigs_fused, stats_fused = run false in
      let sigs_branch, stats_branch = run true in
      let label s = Printf.sprintf "%s (max_crashes=%d)" s max_crashes in
      Alcotest.(check bool)
        (label "fused = branch terminal multiset")
        true
        (sigs_fused = sigs_branch);
      Alcotest.(check bool) (label "fused = branch stats") true
        (stats_fused = stats_branch))
    [ (0, fun () -> untracked_memory 2); (1, fun () -> untracked_memory 2);
      (1, fun () -> make_memory ()) ]

(* A stateful program keeps its state outside the monad — here a step
   counter bumped by every continuation, the shape of the Theorem 1.3
   pipeline's event loop. It reads its register, writes back one more,
   and announces the value it read on its 500th read, forever. *)
let stateful_counter () =
  let reads = ref 0 in
  let rec loop () =
    P.Read
      ( 0,
        fun v ->
          incr reads;
          if !reads = 500 then P.Output (v, fun () -> P.Write (v + 1, loop))
          else P.Write (v + 1, loop) )
  in
  P.Stateful (loop ())

let raises_invalid_arg label f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument" label
  | exception Invalid_argument _ -> ()

(* Stateful lowering: memory-op heads share two scratch slots and the
   decision gets one appended slot, so 2,000 steps leave three slots —
   the memoized lowering would hold one per step. *)
let test_stateful_code_constant_size () =
  let code = P.compile (stateful_counter ()) in
  Alcotest.(check bool) "marked stateful" true (P.Compiled.stateful code);
  let s =
    S.start_compiled ~memory:(make_memory ~n:1 ()) ~programs:(fun _ -> code) ()
  in
  S.run_round_robin ~max_steps:2_000 s;
  Alcotest.(check int) "steps" 2_000 (S.steps_taken s);
  Alcotest.(check int) "register after 1,000 increments" 1_000
    (M.peek (S.memory s) 0);
  Alcotest.(check (array (option int))) "decision announced once" [| Some 499 |]
    (S.decisions s);
  Alcotest.(check bool) "still serving" true (S.status s 0 = S.Running);
  Alcotest.(check int) "two scratch slots + one decision" 3
    (P.Compiled.length code);
  (* A [Return] ends the run on a slot the scratch pair never reuses, and
     a decision at the root is appended before the pair is reserved. *)
  let ret =
    P.compile
      (P.Stateful
         (P.Output (3, fun () -> P.Write (1, fun () -> P.Return 7))))
  in
  let s =
    S.start_compiled ~memory:(make_memory ~n:1 ()) ~programs:(fun _ -> ret) ()
  in
  S.run_round_robin s;
  Alcotest.(check bool) "returned" true (S.status s 0 = S.Decided 7);
  Alcotest.(check (array (option int))) "first decision kept" [| Some 3 |]
    (S.decisions s);
  Alcotest.(check int) "output + two scratch + return" 4 (P.Compiled.length ret)

(* Stateful code runs forward once: restarting it, branching on it or
   walking it must fail loudly, not replay moved-on continuations. *)
let test_stateful_rejections () =
  let memory () = make_memory ~n:1 () in
  let code = P.compile (stateful_counter ()) in
  let s = S.start_compiled ~memory:(memory ()) ~programs:(fun _ -> code) () in
  S.run_round_robin ~max_steps:10 s;
  raises_invalid_arg "second start" (fun () ->
      S.start_compiled ~memory:(memory ()) ~programs:(fun _ -> code) ());
  raises_invalid_arg "branch" (fun () -> S.branch s 0 (fun () -> ()));
  raises_invalid_arg "raw_dfs" (fun () ->
      S.raw_dfs s ~depth:0 ~max_depth:4
        ~visit:(fun _ _ -> ())
        ~on_truncated:(fun _ -> ()));
  let init () =
    S.start ~memory:(memory ()) ~programs:(fun _ -> stateful_counter ()) ()
  in
  raises_invalid_arg "explore" (fun () ->
      Sched.Explore.explore ~max_steps:4 ~init (fun _ -> ()));
  raises_invalid_arg "Stateful below a pure root" (fun () ->
      let s =
        S.start ~memory:(memory ())
          ~programs:(fun _ -> P.Write (1, fun () -> P.Stateful (P.Return ())))
          ()
      in
      S.step s 0);
  (* Pure code is still shareable across runs. *)
  let pure = P.compile (P.Write (1, fun () -> P.Return ())) in
  for _ = 1 to 2 do
    S.run_round_robin
      (S.start_compiled ~memory:(memory ()) ~programs:(fun _ -> pure) ())
  done

(* A step is recorded once: in [Sched.Trace], on states started with
   [~record_trace:true]. Under an installed sink the explorer's spans
   arrive but no per-step [sched] event does — on the general walk (with
   crash branching), the fused raw walk and a random run alike — and the
   recorded traces and terminal decisions are those of the untraced
   runs. *)
let test_traced_runs_emit_no_sched_events () =
  let prog pid =
    let other = 1 - pid in
    P.Write (1, fun () ->
        P.Read (other, fun v ->
            P.Write (v + 2, fun () ->
                P.Read (other, fun w -> P.Return (v, w)))))
  in
  let init ~record_trace () =
    S.start ~record_trace ~memory:(make_memory ()) ~programs:prog ()
  in
  let explored ~raw observe =
    let acc = ref [] in
    ignore
      (Sched.Explore.explore
         ~max_crashes:(if raw then 0 else 1)
         ~dedup:(not raw) ~por:(not raw)
         ~init:(init ~record_trace:(not raw))
         (fun st -> acc := observe st :: !acc));
    List.rev !acc
  in
  let runs () =
    let general = explored ~raw:false (fun st -> (S.trace st, S.decisions st)) in
    let raw = explored ~raw:true (fun st -> ([], S.decisions st)) in
    let s = init ~record_trace:true () in
    S.run_random ~crashes:[ (1, 2) ] (Bits.Rng.make 5) s;
    (general, raw, (S.trace s, S.decisions s))
  in
  let untraced = runs () in
  let events = ref [] in
  let sink =
    { Obs.Sink.emit = (fun e -> events := e :: !events); flush = ignore }
  in
  let traced = Obs.Sink.with_sink sink runs in
  let cats = List.map (fun (e : Obs.Sink.event) -> e.cat) !events in
  Alcotest.(check bool) "the sink saw the explorations" true
    (List.mem "explore" cats);
  Alcotest.(check bool) "no sched event" false (List.mem "sched" cats);
  Alcotest.(check bool) "traces and decisions unchanged" true
    (traced = untraced)

let () =
  Alcotest.run "sched"
    [
      ( "memory",
        [
          Alcotest.test_case "basics" `Quick test_memory_basics;
          Alcotest.test_case "budget enforced" `Quick test_memory_budget;
          Alcotest.test_case "inputs write-once" `Quick
            test_memory_inputs_write_once;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "step semantics" `Quick
            test_scheduler_step_semantics;
          Alcotest.test_case "crash" `Quick test_scheduler_crash;
          Alcotest.test_case "trace replay" `Quick test_scheduler_trace_replay;
          Alcotest.test_case "output-and-continue" `Quick
            test_scheduler_output_continue;
          Alcotest.test_case "random run in slices" `Quick
            test_run_random_slices;
          QCheck_alcotest.to_alcotest prop_run_random_matches_reference;
          Alcotest.test_case "run_random: crash trigger meets a decide" `Quick
            test_run_random_crash_meets_decide;
          QCheck_alcotest.to_alcotest prop_branch_matches_forward_replay;
          Alcotest.test_case "traced runs emit no sched events" `Quick
            test_traced_runs_emit_no_sched_events;
        ] );
      ( "explore",
        [
          Alcotest.test_case "interleaving counts" `Quick test_explore_counts;
          Alcotest.test_case "find" `Quick test_explore_find;
          Alcotest.test_case "crash branching" `Quick
            test_explore_crashes_include_solo;
          Alcotest.test_case "undo rollback across crash branches" `Quick
            test_undo_rollback_across_crashes;
          Alcotest.test_case "undo restores overwritten registers" `Quick
            test_undo_rollback_write_over;
          Alcotest.test_case "deep nested branches rewind" `Quick
            test_deep_branch_rewinds;
          Alcotest.test_case "dedup+POR: >=5x fewer nodes, same states" `Quick
            test_explore_reductions_5x;
          Alcotest.test_case "canonical crash order" `Quick
            test_explore_canonical_crash_order;
        ] );
      ( "budget",
        [
          Alcotest.test_case "resume partitions the enumeration" `Quick
            test_budget_resume_partitions;
          Alcotest.test_case "node cap is exact" `Quick
            test_budget_node_cap;
          Alcotest.test_case "deadline (deterministic clock)" `Quick
            test_budget_deadline_fake_clock;
          Alcotest.test_case "frontier parsing rejects garbage" `Quick
            test_frontier_of_string_rejects_garbage;
        ] );
      ( "par",
        [
          Alcotest.test_case "differential: same terminal set" `Quick
            test_par_differential_sets;
          Alcotest.test_case "differential under crashes" `Quick
            test_par_differential_crashes;
          Alcotest.test_case "raw stats partition exactly" `Quick
            test_par_raw_partition_exact;
          Alcotest.test_case "budget + resume through the pool" `Quick
            test_par_budget_resume;
          Alcotest.test_case "capped parallel runs are reproducible" `Quick
            test_par_capped_reproducible;
          Alcotest.test_case "run_units contract" `Quick
            test_par_run_units_contract;
        ] );
      ( "snapshots",
        [ Alcotest.test_case "double collect" `Quick test_snapshot_clean ] );
      ( "adversary",
        [
          Alcotest.test_case "lockstep forces 2k+3 steps" `Quick
            test_adversary_lockstep_alg1;
          Alcotest.test_case "solo-then" `Quick test_adversary_solo_then;
          Alcotest.test_case "invalid pick rejected" `Quick
            test_adversary_rejects_bad_pick;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "Zobrist hashing beats 10-node truncation"
            `Quick test_zobrist_beats_hash_truncation;
          Alcotest.test_case "dedup distinguishes deep histories" `Quick
            test_dedup_distinguishes_deep_histories;
          Alcotest.test_case "compiled code shared across runs" `Quick
            test_compiled_code_shared_across_runs;
          Alcotest.test_case "fused walk = branch walk" `Quick
            test_fused_equals_branch;
          Alcotest.test_case "stateful code stays constant-size" `Quick
            test_stateful_code_constant_size;
          Alcotest.test_case "stateful code runs forward once" `Quick
            test_stateful_rejections;
        ] );
    ]
