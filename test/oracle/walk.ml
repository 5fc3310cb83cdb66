(* The reference walker for [Sched.Explore]: one visit per maximal
   schedule, no reductions, no undo. A branch forks by replaying its
   choice path from a fresh [init ()], so the walker shares neither the
   engine's undo ([Scheduler.branch]) nor any state-copy code with it:
   it only needs [init] to be deterministic. The first child of each node
   reuses the node's own state, which is why only sibling branches pay a
   replay. *)

module S = Sched.Scheduler
open Sched.Budget

let apply st = function Step pid -> S.step st pid | Crash pid -> S.crash st pid

(* [max_crashes] (default 0) allows crash branches before any step; crash
   pids only increase between two steps, so each crash set is enumerated
   once per position — the engine's canonical order. *)
let interleavings ?(max_steps = 10_000) ?(on_truncated = fun _ -> ())
    ?(max_crashes = 0) ~init visit =
  let fork rev_path =
    let st = init () in
    List.iter (apply st) (List.rev rev_path);
    st
  in
  let rec go st rev_path depth crashes floor =
    match S.running st with
    | [] -> visit st
    | _ when depth >= max_steps -> on_truncated st
    | procs ->
        let crash_branches =
          if crashes < max_crashes then
            List.filter_map
              (fun pid -> if pid >= floor then Some (Crash pid) else None)
              procs
          else []
        in
        List.iteri
          (fun i c ->
            let st = if i = 0 then st else fork rev_path in
            apply st c;
            match c with
            | Step _ -> go st (c :: rev_path) (depth + 1) crashes 0
            | Crash pid -> go st (c :: rev_path) depth (crashes + 1) (pid + 1))
          (List.map (fun pid -> Step pid) procs @ crash_branches)
  in
  go (init ()) [] 0 0 0

(* Engine helpers that only tests need. *)

(* Number of complete crash-free schedules: reductions off, so the engine
   visits once per schedule rather than once per distinct state. *)
let count ~init =
  (Sched.Explore.explore ~dedup:false ~por:false ~init ignore).stats.terminals

exception Found

(* Whether some complete crash-free execution satisfies [pred], with the
   engine's outcome: [false] is conclusive only when it is [Complete]. *)
let exists ~init pred =
  match Sched.Explore.explore ~init (fun st -> if pred st then raise Found) with
  | r -> (false, r.outcome)
  | exception Found -> (true, Sched.Explore.Complete)
