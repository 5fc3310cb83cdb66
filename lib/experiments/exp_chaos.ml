(* E15 — chaos campaigns: ABD atomicity as a machine-checked property under
   randomized fault injection.

   E13 stages the t = n/2 stale read by hand. This experiment finds the same
   violation by search: seeded campaigns drive ABD register emulations
   through the Faults layer (drop, duplication, reordering, delay bursts,
   crashes), every recorded history is decided by Check.Linearize, and the
   first failing fault plan is delta-debugged to a minimal replayable
   counterexample. The sound quorum (n - t, t < n/2) must survive every
   seed; the frontier quorum (n/2) must not. *)

module C = Msgpass.Chaos
module L = Check.Linearize

(* Fixed published seeds: the sound sweep and the frontier counterexample
   quoted in EXPERIMENTS.md and smoked in check.sh. *)
let sound_seed = 1
let sound_runs = 50
let frontier_seed = 127

let row ctx label config ~seed ~runs =
  let c =
    C.campaign ?deadline:ctx.Ctx.budget.Sched.Budget.deadline
      ~jobs:ctx.Ctx.jobs ~seed ~runs
      config
  in
  if c.C.degraded then
    ctx.Ctx.degraded
      (Printf.sprintf "chaos %s: deadline stopped campaign at %d/%d runs"
         label c.C.runs c.C.requested);
  let found =
    match c.C.first with
    | None -> [ "-"; "-"; "-" ]
    | Some f ->
        [
          string_of_int f.C.seed;
          Printf.sprintf "%d -> %d (%d deliveries)"
            (Array.length f.C.original.C.plan)
            (List.length f.C.shrunk)
            (Msgpass.Faults.deliveries f.C.shrunk);
          (match f.C.shrunk_outcome.C.verdict with
          | L.Nonlinearizable _ -> "NONLINEARIZABLE"
          | L.Linearizable _ -> "linearizable (?)");
        ]
  in
  (c,
   [
     label;
     Printf.sprintf "%d/%d" c.C.violations c.C.runs;
     string_of_int c.C.total_completed;
   ]
   @ found)

let run ctx ppf =
  Format.fprintf ppf
    "ABD's atomicity claim, attacked instead of assumed: seeded campaigns@\n\
     inject drops, duplications, reorderings, delay bursts and crashes@\n\
     (lib/msgpass/faults.ml), record every emulated operation's interval,@\n\
     and hand the history to the Check.Linearize Wing–Gong search. A@\n\
     failing fault plan is ddmin-shrunk and replayed bit-for-bit.@\n@\n";
  let _sound, sound_row =
    row ctx "sound (n=4, t=1, quorum 3)" (C.sound ()) ~seed:sound_seed
      ~runs:sound_runs
  in
  let frontier, frontier_row =
    row ctx "frontier (n=4, quorum 2)" (C.frontier ()) ~seed:frontier_seed
      ~runs:1
  in
  Table.print ppf
    ~title:
      (Printf.sprintf
         "E15  chaos campaigns (sound: seeds %d..%d; frontier: seed %d)"
         sound_seed
         (sound_seed + sound_runs - 1)
         frontier_seed)
    ~headers:
      [
        "configuration"; "violations"; "completed ops"; "found at";
        "plan shrunk"; "replayed verdict";
      ]
    [ sound_row; frontier_row ];
  (match frontier.C.first with
  | Some f ->
      Format.fprintf ppf
        "Minimal frontier counterexample (replay with: boundedreg chaos@\n\
         --frontier --seed %d --runs 1 --plan):@\n  @[<hov>%a@]@\n@\n"
        frontier_seed Msgpass.Faults.pp_plan f.C.shrunk;
      Format.fprintf ppf "Replayed verdict: %a@\n@\n"
        (L.pp_verdict Format.pp_print_int)
        f.C.shrunk_outcome.C.verdict
  | None ->
      Format.fprintf ppf
        "(frontier seed %d produced no violation — unexpected)@\n@\n"
        frontier_seed);
  Format.fprintf ppf
    "The sound quorum survives every fault the adversary rolls because any@\n\
     write quorum intersects any read quorum; the frontier quorum loses a@\n\
     completed write to a disjoint read quorum, and the shrinker reduces@\n\
     the found run to the few deliveries that stage exactly E13's split.@\n@\n"
