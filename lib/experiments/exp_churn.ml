(* E17 — dynamic membership: the churn-rate × register-width feasibility
   grid.

   E15 attacks the static ABD emulation; here the membership itself is
   the adversary. Dynreg peers (lib/msgpass/dynreg.ml) size quorums
   against gossiped views of who has entered, activated and left, and a
   rate-bounded random schedule of enter/leave events — the ACEKW
   adversary in the fault layer's logical time — churns the fleet while
   the Wing–Gong checker decides every recorded history. Two knobs span
   the grid: the churn regime (none / below the slack bound / above it
   with unwidened quorums) and the register width (timestamps wrap mod
   2^b). The emulation should stay linearizable exactly when the slack
   covers the churn AND the width outruns the write count; every other
   cell should leak a machine-checked stale read. *)

module C = Msgpass.Chaos
module L = Check.Linearize

(* Fixed published seeds: the grid sweep, and the churn-frontier
   counterexample quoted in EXPERIMENTS.md and smoked in check.sh. *)
let grid_seed = 1
let grid_runs = 500
let witness_seed = 29

(* One grid cell: the churn-frontier preset's fault mix (delay bursts
   and reordering, the static frontier's profile) with the writer's
   script stretched to 8 writes so bounded widths have something to
   wrap — 4 bits (timestamps 0..15) never wraps under 8 writes, 2 bits
   wraps at the fourth write and cycles twice, 1 bit at the second. *)
let cell ~rate ~window ~slack ~width_bits =
  let base = C.churn_frontier () in
  let dyn = Option.get base.C.membership in
  {
    base with
    C.writes = 8;
    membership =
      Some
        {
          dyn with
          C.churn_rate = rate;
          churn_window = window;
          churn_slack = slack;
          width_bits;
        };
  }

let regimes =
  [
    ("no churn, slack 0", 0, 60, 0);
    ("churn 1/60, slack 1", 1, 60, 1);
    ("churn 6/12, slack 0", 6, 12, 0);
  ]

let widths = [ None; Some 4; Some 2; Some 1 ]

let pp_width = function
  | None -> "unbounded"
  | Some b -> Printf.sprintf "%d bits" b

let run ctx ppf =
  Format.fprintf ppf
    "Register emulation in a system that never stops changing: Dynreg@\n\
     (after ACEKW) replaces ABD's static n - t quorum with a majority of@\n\
     the gossiped membership view, widened by a slack that must cover the@\n\
     churn rate. Seeded campaigns roll rate-bounded enter/leave schedules@\n\
     into the fault plans, every history is machine-checked, and the grid@\n\
     below sweeps churn regime x timestamp width (wrapping mod 2^b).@\n@\n";
  let deadline = ctx.Ctx.budget.Sched.Budget.deadline in
  let rows =
    List.map
      (fun (label, rate, window, slack) ->
        label
        :: List.map
             (fun width_bits ->
               let c =
                 C.campaign ?deadline ~jobs:ctx.Ctx.jobs ~seed:grid_seed
                   ~runs:grid_runs
                   (cell ~rate ~window ~slack ~width_bits)
               in
               if c.C.degraded then
                 ctx.Ctx.degraded
                   (Printf.sprintf
                      "churn grid (%s, %s): deadline stopped campaign at \
                       %d/%d runs"
                      label (pp_width width_bits) c.C.runs c.C.requested);
               if c.C.violations = 0 then
                 Printf.sprintf "ok (0/%d)" c.C.runs
               else Printf.sprintf "%d/%d BAD" c.C.violations c.C.runs)
             widths)
      regimes
  in
  Table.print ppf
    ~title:
      (Printf.sprintf
         "E17  churn-rate x register-width feasibility (seeds %d..%d, 8 \
          writes)"
         grid_seed
         (grid_seed + grid_runs - 1))
    ~headers:("churn regime" :: List.map pp_width widths)
    rows;
  Format.fprintf ppf
    "Feasible cells are exactly the sound quadrant: slack at least the@\n\
     churn rate AND 2^width exceeding the write count. Unwidened quorums@\n\
     under above-bound churn lose a completed write to a majority of@\n\
     survivors; a wrapped timestamp makes fresh data compare below stale.@\n@\n";
  (* The pinned counterexample: the churn-frontier preset's first
     violating seed, shrunk to a minimal replayable plan. *)
  let frontier =
    C.campaign ?deadline ~jobs:ctx.Ctx.jobs ~seed:witness_seed ~runs:1
      (C.churn_frontier ())
  in
  (match frontier.C.first with
  | Some f ->
      Format.fprintf ppf
        "Minimal churn counterexample (replay with: boundedreg chaos@\n\
         --churn-frontier --seed %d --runs 1 --plan): %d events shrunk@\n\
         to %d (%d deliveries, %d churn actions):@\n  @[<hov>%a@]@\n@\n"
        witness_seed
        (Array.length f.C.original.C.plan)
        (List.length f.C.shrunk)
        (Msgpass.Faults.deliveries f.C.shrunk)
        (List.length
           (List.filter
              (function
                | Msgpass.Faults.Enter _ | Msgpass.Faults.Leave _ -> true
                | _ -> false)
              f.C.shrunk))
        Msgpass.Faults.pp_plan f.C.shrunk;
      Format.fprintf ppf "Replayed verdict: %a@\n@\n"
        (L.pp_verdict Format.pp_print_int)
        f.C.shrunk_outcome.C.verdict
  | None ->
      Format.fprintf ppf
        "(churn-frontier seed %d produced no violation — unexpected)@\n@\n"
        witness_seed);
  Format.fprintf ppf
    "The shrunk plan reads as a reconfiguration story: seed members leave@\n\
     mid-write, joiners adopt state from the survivors, and a joiner's@\n\
     read completes against a majority that never heard the write — the@\n\
     hazard the ACEKW slack widening exists to absorb.@\n@\n"
