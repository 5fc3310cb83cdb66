module Scheduler = Sched.Scheduler

let m_checks = Obs.Metrics.counter "harness.checks"
let m_violations = Obs.Metrics.counter "harness.violations"
let m_sampled = Obs.Metrics.counter "harness.sampled_paths"
let m_random_runs = Obs.Metrics.counter "harness.random_runs"

type ('v, 'i, 'o) algorithm = {
  name : string;
  memory : unit -> ('v, 'i) Sched.Memory.t;
  program : pid:int -> input:'i -> ('v, 'i, 'o) Sched.Program.t;
}

type 'i violation = {
  inputs : 'i array;
  crashes : (int * int) list;
  seed : int option;
  schedule : int list option;
  reason : string;
}

let pp_schedule ppf pids =
  let shown, extra =
    let rec take k = function
      | [] -> ([], 0)
      | _ :: _ as l when k = 0 -> ([], List.length l)
      | x :: rest ->
          let taken, dropped = take (k - 1) rest in
          (x :: taken, dropped)
    in
    take 400 pids
  in
  Format.fprintf ppf "@[<hov>%a%t@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_space ppf ())
       Format.pp_print_int)
    shown
    (fun ppf ->
      if extra > 0 then Format.fprintf ppf "@ ... (+%d steps)" extra)

let pp_violation pp_i ppf { inputs; crashes; seed; schedule; reason } =
  Format.fprintf ppf
    "@[<v>violation: %s@ inputs: %a@ crashes: %a@ seed: %a@ schedule: %a@]"
    reason
    (Task.pp_config pp_i)
    (Array.map Option.some inputs)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (pid, after) -> Format.fprintf ppf "p%d@%d" pid after))
    crashes
    (Format.pp_print_option Format.pp_print_int)
    seed
    (Format.pp_print_option pp_schedule)
    schedule

type stats = {
  runs : int;
  max_process_steps : int;
  max_bits : int;
  explored : Sched.Explore.stats option;
}

type 'i report = Pass of stats | Fail of 'i violation

let pp_report pp_i ppf = function
  | Pass { runs; max_process_steps; max_bits; explored } ->
      Format.fprintf ppf
        "pass: %d runs, <=%d steps/process, <=%d bits/register" runs
        max_process_steps max_bits;
      Option.iter
        (fun s -> Format.fprintf ppf " (%a)" Sched.Explore.pp_stats s)
        explored
  | Fail v -> pp_violation pp_i ppf v

let start ?record_trace algorithm ~inputs =
  Scheduler.start ?record_trace
    ~memory:(algorithm.memory ())
    ~programs:(fun pid -> algorithm.program ~pid ~input:inputs.(pid))
    ()

(* Replay mode: step the recorded pids in order, applying the recorded
   crash placements with the same trigger rule as {!Scheduler.run_random}
   (crash once the process has taken its quota of steps). The crashed
   process takes no steps inside the recorded schedule either way, so
   crash-at-first-opportunity reproduces the original memory evolution
   bit-for-bit. *)
let run_replay state pids crashes =
  let n = Scheduler.n state in
  let crash_after = Array.make n max_int in
  List.iter (fun (pid, after) -> crash_after.(pid) <- after) crashes;
  let maybe_crash () =
    Scheduler.iter_running state (fun pid ->
        if Scheduler.steps_of state pid >= crash_after.(pid) then
          Scheduler.crash state pid)
  in
  List.iter
    (fun pid ->
      maybe_crash ();
      match Scheduler.status state pid with
      | Scheduler.Running -> Scheduler.step state pid
      | Scheduler.Decided _ | Scheduler.Crashed -> ())
    pids;
  maybe_crash ()

let run_once ?record_trace algorithm ~inputs ~schedule ?(max_steps = 100_000)
    () =
  let state = start ?record_trace algorithm ~inputs in
  (match schedule with
  | `Random (rng, crashes) ->
      Scheduler.run_random ~max_steps ~crashes ~until_outputs:true rng state
  | `List pids ->
      Scheduler.run_schedule state pids;
      Scheduler.run_round_robin ~max_steps state
  | `Replay (pids, crashes) -> run_replay state pids crashes);
  state

(* Check one finished (or abandoned) execution; crashed processes contribute
   [None] outputs, surviving ones must have announced a decision (halting is
   not required: simulations may decide via [Output] and keep serving). *)
let judge task ~inputs ~crashes ~seed ~schedule state =
  if not (Scheduler.all_output state) then
    Some
      {
        inputs;
        crashes;
        seed;
        schedule;
        reason =
          Printf.sprintf
            "process(es) %s did not decide within the step budget"
            (String.concat ","
               (List.map string_of_int (Scheduler.running state)));
      }
  else
    let outputs = Scheduler.decisions state in
    match Task.check task ~inputs ~outputs with
    | Ok () -> None
    | Error reason -> Some { inputs; crashes; seed; schedule; reason }

let observe stats state =
  let per_proc = ref 0 in
  for pid = 0 to Scheduler.n state - 1 do
    per_proc := max !per_proc (Scheduler.steps_of state pid)
  done;
  {
    stats with
    runs = stats.runs + 1;
    max_process_steps = max stats.max_process_steps !per_proc;
    max_bits =
      max stats.max_bits
        (Sched.Memory.max_bits_written (Scheduler.memory state));
  }

let initial_stats =
  { runs = 0; max_process_steps = 0; max_bits = 0; explored = None }

let random_crash_pattern rng ~n ~resilience =
  let how_many = Bits.Rng.int rng (resilience + 1) in
  let pids = Array.init n (fun i -> i) in
  Bits.Rng.shuffle rng pids;
  List.init how_many (fun i -> (pids.(i), Bits.Rng.int rng 30))

(* Schedules longer than this are reported without a replayable schedule:
   re-deriving and printing hundreds of millions of pids helps nobody. *)
let schedule_cap = 2_000_000

let replay algorithm (v : 'i violation) =
  match v.schedule with
  | None -> None
  | Some pids ->
      Some
        (run_once algorithm ~inputs:v.inputs
           ~schedule:(`Replay (pids, v.crashes))
           ())

let check_random ~task ~algorithm ?resilience ?(max_steps = 100_000) ~runs
    ~seed () =
  let n = task.Task.arity in
  let resilience = Option.value resilience ~default:(n - 1) in
  let configurations = Array.of_list (Task.input_configurations task) in
  if Array.length configurations = 0 then
    invalid_arg "Harness.check_random: task admits no input configuration";
  (* Compiled-program cache, one slot per input configuration: the seeded
     loop replays the same protocols up to [runs] times, and compiled
     code both skips re-lowering and keeps the positions earlier runs
     already memoized. Sound here because this loop is sequential;
     [check_supervised]'s jobs>1 sampling compiles per worker instead
     (compiled code must not cross domains). Stateful code is never
     cached: its continuations carry the state of the run that compiled
     it, so every run builds its own. *)
  let compiled = Array.make (Array.length configurations) None in
  let start_cached ?record_trace ci =
    let inputs = configurations.(ci) in
    let codes =
      match compiled.(ci) with
      | Some codes -> codes
      | None ->
          let codes =
            Array.init n (fun pid ->
                Sched.Program.compile
                  (algorithm.program ~pid ~input:inputs.(pid)))
          in
          if not (Array.exists Sched.Program.Compiled.stateful codes) then
            compiled.(ci) <- Some codes;
          codes
    in
    Scheduler.start_compiled ?record_trace
      ~memory:(algorithm.memory ())
      ~programs:(fun pid -> codes.(pid))
      ()
  in
  (* One seeded run; [record_trace] replays the identical rng stream with
     tracing on, which is how a failure's concrete schedule is recovered
     without paying trace allocation on the happy path. *)
  let seeded_run ?record_trace run_seed =
    let rng = Bits.Rng.make run_seed in
    let ci = Bits.Rng.int rng (Array.length configurations) in
    let inputs = configurations.(ci) in
    let crashes = random_crash_pattern rng ~n ~resilience in
    let state = start_cached ?record_trace ci in
    Scheduler.run_random ~max_steps ~crashes ~until_outputs:true rng state;
    (inputs, crashes, state)
  in
  let extract_schedule run_seed state =
    if Scheduler.steps_taken state > schedule_cap then None
    else
      let _, _, traced = seeded_run ~record_trace:true run_seed in
      Some (Sched.Trace.schedule_of (Scheduler.trace traced))
  in
  let rec loop run stats =
    if run >= runs then Pass stats
    else
      let run_seed = seed + run in
      let inputs, crashes, state = seeded_run run_seed in
      Obs.Metrics.inc m_random_runs;
      match
        judge task ~inputs ~crashes ~seed:(Some run_seed) ~schedule:None
          state
      with
      | Some v ->
          Obs.Metrics.inc m_violations;
          Fail { v with schedule = extract_schedule run_seed state }
      | None -> loop (run + 1) (observe stats state)
  in
  loop 0 initial_stats

exception Stop

type coverage = {
  explored : int;
  frontier : int;
  sampled : int;
  sample_seed : int;
  truncated : int;
  first_truncated : int list option;
  stop : Sched.Budget.stop_reason option;
}

type 'i verdict =
  | Verified_exhaustive of stats
  | Verified_sampled of stats * coverage
  | Violation of 'i violation

let pp_coverage ppf c =
  Format.fprintf ppf "explored=%d frontier=%d sampled=%d (seed %d)"
    c.explored c.frontier c.sampled c.sample_seed;
  if c.truncated > 0 then
    Format.fprintf ppf " truncated=%d" c.truncated;
  Option.iter
    (fun r -> Format.fprintf ppf " stop=%a" Sched.Budget.pp_stop_reason r)
    c.stop

let pp_verdict pp_i ppf = function
  | Verified_exhaustive stats ->
      Format.fprintf ppf "verified (exhaustive): %a" (pp_report pp_i)
        (Pass stats)
  | Verified_sampled (stats, c) ->
      Format.fprintf ppf "verified (SAMPLED, not exhaustive): %a@ coverage: %a"
        (pp_report pp_i) (Pass stats) pp_coverage c;
      Option.iter
        (fun pids ->
          Format.fprintf ppf "@ warning: first truncated schedule: %a"
            pp_schedule pids)
        c.first_truncated
  | Violation v -> pp_violation pp_i ppf v

let verdict_ok = function
  | Verified_exhaustive _ | Verified_sampled _ -> true
  | Violation _ -> false

let report_of_verdict = function
  | Verified_exhaustive stats | Verified_sampled (stats, _) -> Pass stats
  | Violation v -> Fail v

(* Supervised checking: the exhaustive pass runs under a resource budget;
   if the budget trips, the abandoned frontier is sampled with seeded
   random completions instead of being silently dropped, and the verdict
   records exactly how hard the claim was checked. *)
let check_supervised ~task ~algorithm ?(max_crashes = 0) ?(max_steps = 10_000)
    ?(budget = Sched.Budget.unlimited) ?(samples = 64) ?(seed = 1)
    ?(truncation = `Fail) ?(jobs = 1) () =
  Obs.Metrics.inc m_checks;
  Obs.Span.begin_ ~cat:"harness"
    ~args:
      [
        ("task", Obs.Json.Str task.Task.name);
        ("algorithm", Obs.Json.Str algorithm.name);
        ("max_crashes", Obs.Json.Int max_crashes);
      ]
    "harness.check";
  let stats = ref initial_stats in
  let search = ref Sched.Explore.zero_stats in
  let failure = ref None in
  let truncated_count = ref 0 in
  let first_truncated = ref None in
  let frontier_total = ref 0 in
  let sampled = ref 0 in
  let samples_left = ref samples in
  let stop_reason = ref None in
  let rng = Bits.Rng.make seed in
  (* One budget for the whole check: each input configuration's exploration
     gets whatever the previous ones left over. *)
  let monitor = Sched.Budget.arm budget in
  (try
     List.iter
       (fun inputs ->
         (* Traces stay on here: exhaustive runs are short, and they are
            what lets a violation report the exact interleaving (and crash
            placements) of the failing branch. *)
         let init () = start ~record_trace:true algorithm ~inputs in
         let stop v =
           failure := Some v;
           raise Stop
         in
         let witness state reason =
           let events = Scheduler.trace state in
           {
             inputs;
             crashes = Sched.Trace.crashes_of events;
             seed = None;
             schedule = Some (Sched.Trace.schedule_of events);
             reason;
           }
         in
         let visit state =
           (* Trace extraction is deferred to [witness]: only a failing
              branch pays for it. *)
           (match
              judge task ~inputs ~crashes:[] ~seed:None ~schedule:None state
            with
           | Some v -> stop (witness state v.reason)
           | None -> ());
           stats := observe !stats state
         in
         let on_truncated state =
           match truncation with
           | `Fail ->
               stop
                 (witness state
                    "interleaving exceeded the step budget \
                     (non-termination?)")
           | `Warn ->
               incr truncated_count;
               if !first_truncated = None then
                 first_truncated :=
                   Some (Sched.Trace.schedule_of (Scheduler.trace state))
         in
         (* Sample one abandoned subtree: re-execute its choice prefix and
            finish the run under a seeded fair random schedule. *)
         let sample_path path =
           let state = init () in
           List.iter
             (fun choice ->
               match choice with
               | Sched.Budget.Step p -> Scheduler.step state p
               | Sched.Budget.Crash p -> Scheduler.crash state p)
             path;
           Scheduler.run_random ~max_steps:(max 1 max_steps)
             ~until_outputs:true rng state;
           incr sampled;
           Obs.Metrics.inc m_sampled;
           let events = Scheduler.trace state in
           match
             judge task ~inputs
               ~crashes:(Sched.Trace.crashes_of events)
               ~seed:(Some seed) ~schedule:None state
           with
           | None -> stats := observe !stats state
           | Some v -> (
               match (truncation, Scheduler.all_output state) with
               | `Warn, false ->
                   (* An undecided sampled run under `Warn is a truncation
                      warning, exactly like an undecided exhaustive path. *)
                   incr truncated_count;
                   if !first_truncated = None then
                     first_truncated :=
                       Some (Sched.Trace.schedule_of events)
               | _ ->
                   stop
                     { (witness state v.reason) with seed = Some seed })
         in
         let sub_budget =
           Sched.Budget.remaining monitor ~nodes:!search.Sched.Explore.nodes
             ~terminals:!search.Sched.Explore.terminals
         in
         let r =
           Sched.Explore.explore ~max_steps ~max_crashes ~budget:sub_budget
             ~on_truncated ~init visit
         in
         (* Parallel sampling: the paths are independent completions, so
            they fan out over the pool. Each sample derives a private rng
            from [seed] and its global sample index — results depend on
            the workload and seed, never on how many domains ran them
            (though they differ from the jobs=1 path, which keeps the
            original single-rng stream byte-for-byte). Outcomes fold on
            this domain in sample order: stats, truncation warnings and
            the winning violation are the same for any [jobs > 1]. *)
         let sample_parallel paths =
           let base = !sampled in
           let units =
             Array.of_list (List.mapi (fun i path -> (base + i, path)) paths)
           in
           let sample_unit (gi, path) =
             let rng = Bits.Rng.make (seed + (7919 * (gi + 1))) in
             let state = init () in
             List.iter
               (fun choice ->
                 match choice with
                 | Sched.Budget.Step p -> Scheduler.step state p
                 | Sched.Budget.Crash p -> Scheduler.crash state p)
               path;
             Scheduler.run_random ~max_steps:(max 1 max_steps)
               ~until_outputs:true rng state;
             let events = Scheduler.trace state in
             match
               judge task ~inputs
                 ~crashes:(Sched.Trace.crashes_of events)
                 ~seed:(Some seed) ~schedule:None state
             with
             | None -> `Ok state
             | Some v -> (
                 match (truncation, Scheduler.all_output state) with
                 | `Warn, false -> `Trunc (Sched.Trace.schedule_of events)
                 | _ -> `Viol { (witness state v.reason) with seed = Some seed })
           in
           let results = Sched.Par.run_units ~jobs ~units sample_unit in
           Array.iter
             (fun r ->
               incr sampled;
               Obs.Metrics.inc m_sampled;
               match r with
               | `Ok state -> stats := observe !stats state
               | `Trunc schedule ->
                   incr truncated_count;
                   if !first_truncated = None then
                     first_truncated := Some schedule
               | `Viol v -> stop v)
             results
         in
         search := Sched.Explore.add_stats !search r.Sched.Explore.stats;
         match r.Sched.Explore.outcome with
         | Sched.Explore.Complete -> ()
         | Sched.Explore.Exhausted { frontier; reason } ->
             stop_reason := Some reason;
             frontier_total := !frontier_total + List.length frontier;
             if jobs > 1 then begin
               let rec take k = function
                 | path :: rest when k > 0 -> path :: take (k - 1) rest
                 | _ -> []
               in
               let paths = take !samples_left frontier in
               samples_left := !samples_left - List.length paths;
               sample_parallel paths
             end
             else
               List.iter
                 (fun path ->
                   if !samples_left > 0 then begin
                     decr samples_left;
                     sample_path path
                   end)
                 frontier)
       (Task.input_configurations task)
   with Stop -> ());
  let verdict =
    match !failure with
    | Some v -> Violation v
    | None ->
        let stats = { !stats with explored = Some !search } in
        if !stop_reason = None && !truncated_count = 0 then
          Verified_exhaustive stats
        else
          Verified_sampled
            ( stats,
              {
                explored = !search.Sched.Explore.terminals;
                frontier = !frontier_total;
                sampled = !sampled;
                sample_seed = seed;
                truncated = !truncated_count;
                first_truncated = !first_truncated;
                stop = !stop_reason;
              } )
  in
  (match verdict with Violation _ -> Obs.Metrics.inc m_violations | _ -> ());
  Obs.Span.end_ ~cat:"harness"
    ~args:
      [
        ( "verdict",
          Obs.Json.Str
            (match verdict with
            | Verified_exhaustive _ -> "verified_exhaustive"
            | Verified_sampled _ -> "verified_sampled"
            | Violation _ -> "violation") );
        ("explored", Obs.Json.Int !search.Sched.Explore.terminals);
        ("frontier", Obs.Json.Int !frontier_total);
        ("sampled", Obs.Json.Int !sampled);
        ("truncated", Obs.Json.Int !truncated_count);
      ]
    "harness.check";
  verdict

let check_exhaustive ~task ~algorithm ?max_crashes ?max_steps () =
  (* Unbudgeted and strict about truncation: [Verified_sampled] cannot
     happen, so this collapses losslessly to the two-valued report. *)
  report_of_verdict
    (check_supervised ~task ~algorithm ?max_crashes ?max_steps ())
