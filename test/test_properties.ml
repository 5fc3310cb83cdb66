(* Cross-stack property-based tests: the paper's invariants under random
   parameters and random schedules (all seeded through qcheck). *)

module Q = Bits.Rational
module H = Tasks.Harness
module Proto = Iterated.Proto

let q_in_01 v = Q.(v >= Q.zero) && Q.(v <= Q.one)

(* Algorithm 1: for any k and any random schedule/crash pattern, decisions
   are on the grid, within eps, and within the step bound. *)
let prop_alg1 =
  QCheck.Test.make ~name:"alg1: eps-agreement for random k, seeds" ~count:120
    QCheck.(pair (int_range 1 20) (int_range 0 10_000))
    (fun (k, seed) ->
      let den = Core.Alg1_one_bit.denominator ~k in
      let task = Tasks.Eps_agreement.task ~n:2 ~k:den in
      match
        H.check_random ~task
          ~algorithm:(Core.Alg1_one_bit.algorithm ~k)
          ~runs:3 ~seed ()
      with
      | H.Pass stats ->
          stats.H.max_process_steps <= (2 * k) + 3 && stats.H.max_bits <= 1
      | H.Fail _ -> false)

(* The baseline halves the spread every round for any n. *)
let prop_baseline =
  QCheck.Test.make ~name:"baseline: halving for random n, rounds" ~count:60
    QCheck.(triple (int_range 2 5) (int_range 0 5) (int_range 0 10_000))
    (fun (n, rounds, seed) ->
      let task =
        Tasks.Eps_agreement.task ~n
          ~k:(Core.Baseline_unbounded.denominator ~rounds)
      in
      match
        H.check_random ~task
          ~algorithm:(Core.Baseline_unbounded.algorithm ~n ~rounds)
          ~runs:2 ~seed ()
      with
      | H.Pass _ -> true
      | H.Fail _ -> false)

(* Labelling: in any IS execution the two final labels map to values
   exactly one grain apart, inside [0,1]. *)
let partition_word_gen rounds =
  QCheck.Gen.(list_size (return rounds) (int_bound 2))

let prop_labelling =
  QCheck.Test.make ~name:"labelling: co-final labels one grain apart"
    ~count:200
    (QCheck.make
       QCheck.Gen.(int_range 1 10 >>= fun r -> partition_word_gen r))
    (fun word ->
      let rounds = List.length word in
      let pow3 =
        let rec go acc i = if i = 0 then acc else go (3 * acc) (i - 1) in
        go 1 rounds
      in
      let schedule ~round ~participants:_ =
        match List.nth word (round - 1) with
        | 0 -> [ [ 0 ]; [ 1 ] ] (* process 0 solo *)
        | 1 -> [ [ 0; 1 ] ]
        | _ -> [ [ 1 ]; [ 0 ] ]
      in
      let outcome =
        Iterated.Iis.run ~n:2 ~budget:(Bits.Width.Bounded 1)
          ~measure:(Bits.Width.uint ~max:1)
          ~programs:(fun pid -> Core.Labelling.protocol ~rounds ~me:pid)
          ~schedule ()
      in
      match (outcome.Iterated.Iis.decisions.(0), outcome.Iterated.Iis.decisions.(1)) with
      | Some l0, Some l1 ->
          let v0 = Core.Labelling.value l0 and v1 = Core.Labelling.value l1 in
          q_in_01 v0 && q_in_01 v1
          && Q.equal (Q.abs (Q.sub v0 v1)) (Q.make 1 pow3)
      | _ -> false)

(* Ring simulation: for random Delta, R, and shared-memory schedule, the
   two exit labels sit exactly one pruned-path grain apart. *)
let prop_ring_sim =
  QCheck.Test.make ~name:"ring sim: pruned values one grain apart" ~count:150
    QCheck.(triple (int_range 2 4) (int_range 2 10) (int_range 0 100_000))
    (fun (delta, rounds, seed) ->
      let total = Core.Ring_sim.executions_count ~delta ~rounds in
      let state =
        Sched.Scheduler.start
          ~memory:
            (Sched.Memory.create ~n:2
               ~budget:
                 (Bits.Width.Bounded (Core.Ring_sim.register_bits ~delta))
               ~measure:(Core.Ring_sim.measure ~delta)
               ~init:(Core.Ring_sim.initial ~delta))
          ~programs:(fun pid -> Core.Ring_sim.protocol ~delta ~rounds ~me:pid)
          ()
      in
      Sched.Scheduler.run_random (Bits.Rng.make seed) state;
      match
        ((Sched.Scheduler.decisions state).(0),
         (Sched.Scheduler.decisions state).(1))
      with
      | Some l0, Some l1 ->
          let v0 = Core.Ring_sim.value ~delta ~rounds l0
          and v1 = Core.Ring_sim.value ~delta ~rounds l1 in
          Q.equal (Q.abs (Q.sub v0 v1)) (Q.make 1 total)
      | _ -> false)

(* Fast agreement: eps <= 2^-R for random R and schedule. *)
let prop_fast_agreement =
  QCheck.Test.make ~name:"fast agreement: grain below 2^-R" ~count:80
    QCheck.(pair (int_range 1 14) (int_range 0 10_000))
    (fun (rounds, seed) ->
      let den = Core.Fast_agreement.denominator ~delta:2 ~rounds in
      let task = Tasks.Eps_agreement.task ~n:2 ~k:den in
      den >= 1 lsl rounds
      &&
      match
        H.check_random ~task
          ~algorithm:(Core.Fast_agreement.algorithm ~delta:2 ~rounds)
          ~runs:3 ~seed ()
      with
      | H.Pass stats -> stats.H.max_process_steps <= (2 * rounds) + 3
      | H.Fail _ -> false)

(* BG snapshots keep the IS properties at n = 4 (beyond the exhaustively
   checked sizes). *)
let prop_bg_n4 =
  QCheck.Test.make ~name:"BG snapshot: IS properties at n=4" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n = 4 in
      let o =
        Iterated.Ic.run_random ~n ~budget:Bits.Width.Unbounded
          ~measure:Bits.Width.unbounded
          ~programs:(fun pid ->
            Iterated.Bg_snapshot.simulate ~n
              (Proto.Round (pid, fun v -> Proto.Decide v)))
          ~rng:(Bits.Rng.make seed) ()
      in
      let views =
        Array.map
          (function Some v -> v | None -> [||])
          o.Iterated.Ic.decisions
      in
      let written = Array.init n (fun i -> i) in
      Iterated.Views.validity ~equal:Int.equal ~written views
      && Iterated.Views.self_containment views
      && Iterated.Views.inclusion ~equal:Int.equal views
      && Iterated.Views.immediacy ~equal:Int.equal views)

(* The IIS midpoint agreement converges at 2^-rounds for n up to 4 under
   random schedules with crashes. *)
let prop_iis_agreement =
  QCheck.Test.make ~name:"IIS agreement under random schedules" ~count:100
    QCheck.(triple (int_range 2 4) (int_range 1 6) (int_range 0 100_000))
    (fun (n, rounds, seed) ->
      let rng = Bits.Rng.make seed in
      let inputs = Array.init n (fun _ -> Bits.Rng.int rng 2) in
      let o =
        Iterated.Iis.run_random ~n ~budget:Bits.Width.Unbounded
          ~measure:Bits.Width.unbounded
          ~programs:(fun pid ->
            Iterated.Agreement.protocol ~rounds ~input:inputs.(pid))
          ~rng ~crash_probability:0.1 ()
      in
      let ds =
        Array.to_list o.Iterated.Iis.decisions |> List.filter_map (fun d -> d)
      in
      let eps = Q.make 1 (Iterated.Agreement.denominator ~rounds) in
      let same x = Array.for_all (Int.equal x) inputs in
      Q.(Q.spread ds <= eps)
      && (not (same 0) || List.for_all (Q.equal Q.zero) ds)
      && (not (same 1) || List.for_all (Q.equal Q.one) ds))

(* Explore really enumerates C(a+b, a) interleavings. *)
let prop_explore_count =
  QCheck.Test.make ~name:"explore: C(a+b,a) interleavings" ~count:30
    QCheck.(pair (int_range 0 5) (int_range 0 5))
    (fun (a, b) ->
      let open Sched.Program.Infix in
      let straight len : (int, unit, unit) Sched.Program.t =
        let rec go k =
          if k = 0 then Sched.Program.return ()
          else
            let* () = Sched.Program.write k in
            go (k - 1)
        in
        go len
      in
      let init () =
        Sched.Scheduler.start
          ~memory:
            (Sched.Memory.create ~n:2 ~budget:Bits.Width.Unbounded
               ~measure:Bits.Width.unbounded ~init:0)
          ~programs:(fun pid -> straight (if pid = 0 then a else b))
          ()
      in
      let rec fact n = if n = 0 then 1 else n * fact (n - 1) in
      Oracle.Walk.count ~init = fact (a + b) / (fact a * fact b))

(* Differential oracle for the exploration engine: on random small programs
   (reads feed into decisions, so observation order matters), the
   engine with reductions off walks the same tree as the replaying
   reference walker, and with dedup+POR on it reaches exactly the same set of
   terminal states, each visited once. *)
let explore_gen =
  QCheck.Gen.(
    int_range 2 3 >>= fun n ->
    int_range 0 1 >>= fun crashes ->
    (* Keep the naive tree small: 3 procs get <= 3 ops, 2 procs <= 4. *)
    let op =
      oneof
        [
          map (fun v -> `W v) (int_range 0 3);
          map (fun j -> `R j) (int_range 0 (n - 1));
        ]
    in
    list_repeat n (list_size (int_range 0 (if n = 2 then 4 else 3)) op)
    >>= fun progs -> return (n, crashes, Array.of_list progs))

let explore_print (n, crashes, progs) =
  Printf.sprintf "n=%d crashes=%d [%s]" n crashes
    (String.concat "; "
       (Array.to_list progs
       |> List.map (fun ops ->
              String.concat ","
                (List.map
                   (function
                     | `W v -> Printf.sprintf "W%d" v
                     | `R j -> Printf.sprintf "R%d" j)
                   ops))))

let prop_explore_differential =
  QCheck.Test.make ~name:"explore: optimized engine = naive walker" ~count:80
    (QCheck.make ~print:explore_print explore_gen)
    (fun (n, max_crashes, progs) ->
      let build ops =
        let rec go ops acc =
          match ops with
          | [] -> Sched.Program.Return (List.rev acc)
          | `W v :: rest -> Sched.Program.Write (v, fun () -> go rest acc)
          | `R j :: rest ->
              Sched.Program.Read (j, fun v -> go rest (v :: acc))
          | `WI :: rest ->
              Sched.Program.Write_input
                (List.length acc, fun () -> go rest acc)
          | `RI j :: rest ->
              Sched.Program.Read_input
                (j, fun i -> go rest (Option.value i ~default:(-1) :: acc))
        in
        go ops []
      in
      let init () =
        Sched.Scheduler.start
          ~memory:
            (Sched.Memory.create ~n ~budget:Bits.Width.Unbounded
               ~measure:Bits.Width.unbounded ~init:0)
          ~programs:(fun pid -> build progs.(pid))
          ()
      in
      let signature st =
        ( Array.to_list (Sched.Scheduler.decisions st),
          Array.to_list (Sched.Memory.contents (Sched.Scheduler.memory st)),
          Sched.Scheduler.crashed st )
      in
      let naive = ref [] in
      Oracle.Walk.interleavings ~max_crashes ~init (fun st ->
          naive := signature st :: !naive);
      let raw = ref [] in
      let raw_stats =
        (Sched.Explore.explore ~max_crashes ~dedup:false ~por:false ~init
           (fun st -> raw := signature st :: !raw))
          .Sched.Explore.stats
      in
      let opt = ref [] in
      let opt_stats =
        (Sched.Explore.explore ~max_crashes ~init (fun st ->
             opt := signature st :: !opt))
          .Sched.Explore.stats
      in
      let sorted l = List.sort compare l in
      let set l = List.sort_uniq compare l in
      (* reductions off: the same multiset of terminal states as naive *)
      sorted !raw = sorted !naive
      && raw_stats.Sched.Explore.terminals = List.length !naive
      (* dedup + POR: exactly the same reachable terminal-state set *)
      && set !opt = set !naive
      (* crash-free histories determine signatures, so dedup implies each
         state is visited exactly once; under crashes, coinciding write
         values can leave distinct histories with equal signatures. *)
      && (max_crashes > 0 || List.length !opt = List.length (set !opt))
      && opt_stats.Sched.Explore.nodes <= raw_stats.Sched.Explore.nodes)

(* Domain-parallel engine: with reductions off the frontier fan-out
   partitions the raw tree, so the merged stats record must equal the
   sequential one field-for-field on random programs (tiny seed segments
   force the parallel path even on small trees). *)
let prop_par_raw_equals_seq =
  QCheck.Test.make ~name:"par: raw parallel stats = sequential" ~count:40
    (QCheck.make ~print:explore_print explore_gen)
    (fun (n, max_crashes, progs) ->
      let build ops =
        let rec go ops acc =
          match ops with
          | [] -> Sched.Program.Return (List.rev acc)
          | `W v :: rest -> Sched.Program.Write (v, fun () -> go rest acc)
          | `R j :: rest ->
              Sched.Program.Read (j, fun v -> go rest (v :: acc))
          | `WI :: rest ->
              Sched.Program.Write_input
                (List.length acc, fun () -> go rest acc)
          | `RI j :: rest ->
              Sched.Program.Read_input
                (j, fun i -> go rest (Option.value i ~default:(-1) :: acc))
        in
        go ops []
      in
      let init () =
        Sched.Scheduler.start
          ~memory:
            (Sched.Memory.create ~n ~budget:Bits.Width.Unbounded
               ~measure:Bits.Width.unbounded ~init:0)
          ~programs:(fun pid -> build progs.(pid))
          ()
      in
      let seq =
        Sched.Explore.explore ~max_crashes ~dedup:false ~por:false ~init
          (fun _ -> ())
      in
      let par =
        Sched.Par.explore ~max_crashes ~dedup:false ~por:false ~jobs:4
          ~seed_nodes:8 ~init
          ~fold:(fun _ k -> k + 1)
          ~merge:( + ) 0
      in
      par.Sched.Par.stats = seq.Sched.Explore.stats
      && par.Sched.Par.value = seq.Sched.Explore.stats.Sched.Explore.terminals
      && par.Sched.Par.outcome = Sched.Explore.Complete)

(* Free-monad oracle: an interpreter over the [Program.t] constructors
   themselves — no [Scheduler], no compiled code, no undo — enumerating
   schedules exactly like [Oracle.Walk] (steps in pid order, crashes
   with an increasing-pid floor). The engine lowers programs into flat
   step arrays and walks them with in-frame undo; this oracle pins that
   compiled execution to the paper-level semantics of the monad. *)
module Monad_oracle = struct
  type ('v, 'i, 'a) proc =
    | Susp of ('v, 'i, 'a) Sched.Program.t  (* head is a memory op *)
    | Halted

  type ('v, 'i, 'a) st = {
    regs : 'v array;
    inputs : 'i option array;
    procs : ('v, 'i, 'a) proc array;
    decisions : 'a option array;
    mutable crashed : int list;
  }

  (* [Return] records the first decision and halts; [Output] records and
     continues — mirroring [Scheduler]'s settling of decision heads.
     [Stateful] only changes how a program is compiled, not what it
     does, so the oracle steps through it. *)
  let rec settle st pid (p : _ Sched.Program.t) =
    match p with
    | Sched.Program.Return a ->
        if st.decisions.(pid) = None then st.decisions.(pid) <- Some a;
        st.procs.(pid) <- Halted
    | Sched.Program.Output (a, k) ->
        if st.decisions.(pid) = None then st.decisions.(pid) <- Some a;
        settle st pid (k ())
    | Sched.Program.Stateful p -> settle st pid p
    | p -> st.procs.(pid) <- Susp p

  let start ~n ~init programs =
    let st =
      {
        regs = Array.make n init;
        inputs = Array.make n None;
        procs = Array.make n Halted;
        decisions = Array.make n None;
        crashed = [];
      }
    in
    for pid = 0 to n - 1 do
      settle st pid (programs pid)
    done;
    st

  (* Programs are pure between steps, so sharing the suspended [Susp]
     payloads across forks is a true fork — only the arrays are state. *)
  let copy st =
    {
      st with
      regs = Array.copy st.regs;
      inputs = Array.copy st.inputs;
      procs = Array.copy st.procs;
      decisions = Array.copy st.decisions;
    }

  let step st pid =
    match st.procs.(pid) with
    | Susp (Sched.Program.Write (v, k)) ->
        st.regs.(pid) <- v;
        settle st pid (k ())
    | Susp (Sched.Program.Read (j, k)) -> settle st pid (k st.regs.(j))
    | Susp (Sched.Program.Write_input (x, k)) ->
        st.inputs.(pid) <- Some x;
        settle st pid (k ())
    | Susp (Sched.Program.Read_input (j, k)) -> settle st pid (k st.inputs.(j))
    | Susp
        ( Sched.Program.Return _ | Sched.Program.Output _
        | Sched.Program.Stateful _ )
    | Halted ->
        assert false

  let running st =
    let acc = ref [] in
    for pid = Array.length st.procs - 1 downto 0 do
      match st.procs.(pid) with
      | Susp _ -> acc := pid :: !acc
      | Halted -> ()
    done;
    !acc

  let crash st pid =
    st.procs.(pid) <- Halted;
    st.crashed <- pid :: st.crashed

  let interleavings ~max_crashes ~n ~init programs visit =
    let rec go st crashes floor =
      match running st with
      | [] -> visit st
      | procs ->
          List.iter
            (fun pid ->
              let f = copy st in
              step f pid;
              go f crashes 0)
            procs;
          if crashes < max_crashes then
            List.iter
              (fun pid ->
                if pid >= floor then begin
                  let f = copy st in
                  crash f pid;
                  go f (crashes + 1) (pid + 1)
                end)
              procs
    in
    go (start ~n ~init programs) 0 0

  let signature st =
    ( Array.to_list st.decisions,
      Array.to_list st.regs,
      List.sort compare st.crashed )
end

let prop_compiled_equals_free_monad =
  QCheck.Test.make ~name:"explore: compiled engine = free-monad oracle"
    ~count:60
    (QCheck.make ~print:explore_print explore_gen)
    (fun (n, max_crashes, progs) ->
      let build ops =
        let rec go ops acc =
          match ops with
          | [] -> Sched.Program.Return (List.rev acc)
          | `W v :: rest -> Sched.Program.Write (v, fun () -> go rest acc)
          | `R j :: rest ->
              Sched.Program.Read (j, fun v -> go rest (v :: acc))
          | `WI :: rest ->
              Sched.Program.Write_input
                (List.length acc, fun () -> go rest acc)
          | `RI j :: rest ->
              Sched.Program.Read_input
                (j, fun i -> go rest (Option.value i ~default:(-1) :: acc))
        in
        go ops []
      in
      let init () =
        Sched.Scheduler.start
          ~memory:
            (Sched.Memory.create ~n ~budget:Bits.Width.Unbounded
               ~measure:Bits.Width.unbounded ~init:0)
          ~programs:(fun pid -> build progs.(pid))
          ()
      in
      let sched_sig st =
        ( Array.to_list (Sched.Scheduler.decisions st),
          Array.to_list (Sched.Memory.contents (Sched.Scheduler.memory st)),
          Sched.Scheduler.crashed st )
      in
      let oracle = ref [] in
      Monad_oracle.interleavings ~max_crashes ~n ~init:0
        (fun pid -> build progs.(pid))
        (fun st -> oracle := Monad_oracle.signature st :: !oracle);
      let engine = ref [] in
      let stats =
        (Sched.Explore.explore ~max_crashes ~dedup:false ~por:false ~init
           (fun st -> engine := sched_sig st :: !engine))
          .Sched.Explore.stats
      in
      let sorted l = List.sort compare l in
      (* reductions off: one visit per schedule, same multiset as the
         monad-level enumeration *)
      sorted !engine = sorted !oracle
      && stats.Sched.Explore.terminals = List.length !oracle
      (* dedup + POR: exactly the oracle's reachable terminal-state set *)
      &&
      let opt = ref [] in
      ignore
        (Sched.Explore.explore ~max_crashes ~init (fun st ->
             opt := sched_sig st :: !opt)
          : Sched.Explore.result);
      List.sort_uniq compare !opt = List.sort_uniq compare !oracle)

(* Parallel digests: an order-insensitive digest of the terminal
   signatures (native-int wraparound sum of deep structural hashes, as
   the CLI computes it) must be identical at every pool width, with and
   without crashes. *)
let prop_par_digest_width_invariant =
  QCheck.Test.make ~name:"par: terminal digest invariant across jobs"
    ~count:20
    (QCheck.make ~print:explore_print explore_gen)
    (fun (n, max_crashes, progs) ->
      let build ops =
        let rec go ops acc =
          match ops with
          | [] -> Sched.Program.Return (List.rev acc)
          | `W v :: rest -> Sched.Program.Write (v, fun () -> go rest acc)
          | `R j :: rest ->
              Sched.Program.Read (j, fun v -> go rest (v :: acc))
          | `WI :: rest ->
              Sched.Program.Write_input
                (List.length acc, fun () -> go rest acc)
          | `RI j :: rest ->
              Sched.Program.Read_input
                (j, fun i -> go rest (Option.value i ~default:(-1) :: acc))
        in
        go ops []
      in
      let init () =
        Sched.Scheduler.start
          ~memory:
            (Sched.Memory.create ~n ~budget:Bits.Width.Unbounded
               ~measure:Bits.Width.unbounded ~init:0)
          ~programs:(fun pid -> build progs.(pid))
          ()
      in
      let fold st acc =
        acc
        + Sched.Zobrist.value_hash
            ( Array.to_list (Sched.Scheduler.decisions st),
              Array.to_list
                (Sched.Memory.contents (Sched.Scheduler.memory st)),
              Sched.Scheduler.crashed st )
      in
      let digest jobs =
        (Sched.Par.explore ~max_crashes ~dedup:false ~por:false ~jobs
           ~seed_nodes:4 ~init ~fold ~merge:( + ) 0)
          .Sched.Par.value
      in
      let d1 = digest 1 in
      List.for_all (fun jobs -> digest jobs = d1) [ 2; 4; 8 ])

(* Trace replay: any random execution is reproduced exactly from its own
   schedule. *)
let prop_trace_replay =
  QCheck.Test.make ~name:"trace replay reproduces decisions" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 100_000))
    (fun (k, seed) ->
      let algorithm = Core.Alg1_one_bit.algorithm ~k in
      let fresh () =
        Sched.Scheduler.start ~record_trace:true
          ~memory:(algorithm.H.memory ())
          ~programs:(fun pid -> algorithm.H.program ~pid ~input:pid)
          ()
      in
      let s = fresh () in
      Sched.Scheduler.run_random (Bits.Rng.make seed) s;
      let s' = fresh () in
      Sched.Scheduler.run_schedule s'
        (Sched.Trace.schedule_of (Sched.Scheduler.trace s));
      let d = Sched.Scheduler.decisions s
      and d' = Sched.Scheduler.decisions s' in
      Array.for_all2 (Option.equal Q.equal) d d')

(* Stateful lowering is a memory-layout change only: on pure random
   scripts — the [`W]/[`R] ops above, input reads [`RI], at most one
   input write [`WI] (input registers are write-once), and [`O], which
   announces the reads so far and keeps going — [Stateful p] must run
   exactly like [p] under the same seeded random schedule and crash list
   (same trace, decisions, statuses and step counts), in at most two
   scratch slots plus one per decision head. Every op kind is generated:
   a scratch slot keeps only the arrays its op reads back, so each kind
   following each other kind into a slot is what this checks. *)
let stateful_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    let op =
      frequency
        [
          (3, map (fun v -> `W v) (int_range 0 3));
          (3, map (fun j -> `R j) (int_range 0 (n - 1)));
          (1, map (fun j -> `RI j) (int_range 0 (n - 1)));
          (1, return `O);
        ]
    in
    let prog =
      list_size (int_range 0 12) op >>= fun ops ->
      bool >>= fun input ->
      int_range 0 (List.length ops) >>= fun at ->
      return
        (if input then
           List.filteri (fun i _ -> i < at) ops
           @ (`WI :: List.filteri (fun i _ -> i >= at) ops)
         else ops)
    in
    list_repeat n prog >>= fun progs ->
    list_size (int_range 0 2) (pair (int_range 0 (n - 1)) (int_range 0 6))
    >>= fun crashes ->
    int >>= fun seed -> return (n, crashes, seed, Array.of_list progs))

let stateful_print (n, crashes, seed, progs) =
  Printf.sprintf "n=%d crashes=[%s] seed=%d [%s]" n
    (String.concat ";"
       (List.map (fun (p, a) -> Printf.sprintf "p%d@%d" p a) crashes))
    seed
    (String.concat "; "
       (Array.to_list progs
       |> List.map (fun ops ->
              String.concat ","
                (List.map
                   (function
                     | `W v -> Printf.sprintf "W%d" v
                     | `R j -> Printf.sprintf "R%d" j
                     | `WI -> "WI"
                     | `RI j -> Printf.sprintf "RI%d" j
                     | `O -> "O")
                   ops))))

let prop_stateful_equals_pure =
  QCheck.Test.make ~name:"compiled: Stateful p runs exactly like p" ~count:300
    (QCheck.make ~print:stateful_print stateful_gen)
    (fun (n, crashes, seed, progs) ->
      let build ops =
        let rec go ops acc =
          match ops with
          | [] -> Sched.Program.Return (List.rev acc)
          | `W v :: rest -> Sched.Program.Write (v, fun () -> go rest acc)
          | `R j :: rest ->
              Sched.Program.Read (j, fun v -> go rest (v :: acc))
          | `WI :: rest ->
              Sched.Program.Write_input
                (List.length acc, fun () -> go rest acc)
          | `RI j :: rest ->
              Sched.Program.Read_input
                (j, fun i -> go rest (Option.value i ~default:(-1) :: acc))
          | `O :: rest ->
              Sched.Program.Output (List.rev acc, fun () -> go rest acc)
        in
        go ops []
      in
      let run wrap =
        let codes =
          Array.map (fun ops -> Sched.Program.compile (wrap (build ops))) progs
        in
        let s =
          Sched.Scheduler.start_compiled ~record_trace:true
            ~memory:
              (Sched.Memory.create ~n ~budget:Bits.Width.Unbounded
                 ~measure:Bits.Width.unbounded ~init:0)
            ~programs:(fun pid -> codes.(pid))
            ()
        in
        Sched.Scheduler.run_random ~crashes (Bits.Rng.make seed) s;
        ( ( Sched.Scheduler.trace s,
            Sched.Scheduler.decisions s,
            List.init n (Sched.Scheduler.status s),
            List.init n (Sched.Scheduler.steps_of s) ),
          codes )
      in
      let pure, _ = run Fun.id in
      let stateful, codes = run (fun p -> Sched.Program.Stateful p) in
      let decide_heads ops = 1 + List.length (List.filter (( = ) `O) ops) in
      pure = stateful
      && Array.for_all2
           (fun code ops ->
             Sched.Program.Compiled.stateful code
             && Sched.Program.Compiled.length code <= 2 + decide_heads ops)
           codes progs)

(* A checkpoint is outside input. Byte edits of a real one (Algorithm 1,
   k = 3, one crash, cut at 150 nodes) either fail to parse, resume, or
   are refused with the positioned [Invalid_argument] — never another
   exception from deep inside the engine. *)
let resume_init () =
  let algorithm = Core.Alg1_one_bit.algorithm ~k:3 in
  Sched.Scheduler.start
    ~memory:(algorithm.H.memory ())
    ~programs:(fun pid -> algorithm.H.program ~pid ~input:pid)
    ()

let real_checkpoint =
  lazy
    (match
       (Sched.Explore.explore ~max_crashes:1
          ~budget:(Sched.Budget.make ~max_nodes:150 ())
          ~init:resume_init ignore)
         .Sched.Explore.outcome
     with
    | Sched.Explore.Exhausted { frontier; _ } ->
        Sched.Budget.frontier_to_string frontier
    | Sched.Explore.Complete -> failwith "150 nodes should not finish k = 3")

let prop_hostile_checkpoint =
  let byte =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl [ 's'; 'c'; '0'; '1'; '2'; '9'; ' '; '\n'; '.' ]);
          (1, char);
        ])
  in
  let edits = QCheck.Gen.(list_size (int_range 1 3) (pair nat byte)) in
  let print =
    QCheck.Print.(list (pair int (fun c -> Printf.sprintf "%C" c)))
  in
  QCheck.Test.make ~name:"resume: hostile checkpoints refused" ~count:200
    (QCheck.make ~print edits)
    (fun edits ->
      let text = Bytes.of_string (Lazy.force real_checkpoint) in
      List.iter
        (fun (pos, c) -> Bytes.set text (pos mod Bytes.length text) c)
        edits;
      match Sched.Budget.frontier_of_string (Bytes.to_string text) with
      | Error _ -> true
      | Ok frontier -> (
          match
            Sched.Explore.explore ~max_crashes:1
              ~budget:(Sched.Budget.make ~max_nodes:300 ())
              ~resume:frontier ~init:resume_init ignore
          with
          | _ -> true
          | exception Invalid_argument m ->
              String.starts_with ~prefix:"resume path " m))

(* A bad choice on a checkpoint's last line is refused with that line's
   number at any pool width. [Sched.Par]'s seed pass defers the
   paths past its node cap and each unit resumes a one-path list, so
   only checking every path before exploring keeps the number. *)
let test_resume_names_checkpoint_line () =
  let init () =
    let algorithm = Core.Alg1_one_bit.algorithm ~k:4 in
    Sched.Scheduler.start
      ~memory:(algorithm.H.memory ())
      ~programs:(fun pid -> algorithm.H.program ~pid ~input:pid)
      ()
  in
  let frontier =
    match
      (Sched.Explore.explore ~max_crashes:1
         ~budget:(Sched.Budget.make ~max_nodes:100 ())
         ~init ignore)
        .Sched.Explore.outcome
    with
    | Sched.Explore.Exhausted { frontier; _ } -> frontier
    | Sched.Explore.Complete -> Alcotest.fail "100 nodes cannot finish k = 4"
  in
  Alcotest.(check int) "a 22-path checkpoint" 22 (List.length frontier);
  let resume = frontier @ [ [ Sched.Budget.Step 0; Sched.Budget.Step 99 ] ] in
  let want = "resume path 23, choice 2: pid 99 outside 0..1" in
  let cut = Some (Sched.Budget.make ~max_nodes:10 ()) in
  List.iter
    (fun (what, budget, jobs) ->
      match
        Sched.Par.explore ~max_crashes:1 ?budget ~resume ~jobs ~init
          ~fold:(fun _ () -> ()) ~merge:(fun () () -> ()) ()
      with
      | _ -> Alcotest.failf "%s: the bad line was resumed" what
      | exception Invalid_argument m -> Alcotest.(check string) what want m)
    [
      ("jobs 1", None, 1);
      ("jobs 2", None, 2);
      ("jobs 1, cut before the line", cut, 1);
      ("jobs 2, cut before the line", cut, 2);
    ]

let () =
  Alcotest.run "properties"
    [
      ( "protocol-invariants",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_alg1;
            prop_baseline;
            prop_labelling;
            prop_ring_sim;
            prop_fast_agreement;
            prop_bg_n4;
            prop_iis_agreement;
            prop_explore_count;
            prop_explore_differential;
            prop_par_raw_equals_seq;
            prop_compiled_equals_free_monad;
            prop_stateful_equals_pure;
            prop_par_digest_width_invariant;
            prop_trace_replay;
            prop_hostile_checkpoint;
          ] );
      ( "resume",
        [
          Alcotest.test_case "errors name the checkpoint line" `Quick
            test_resume_names_checkpoint_line;
        ] );
    ]
