(* The benchmark harness: Bechamel timings of the core operations, one
   table row each. scripts/perf_gate.py reads three of the rows. The
   experiment tables (one per figure/theorem of the paper — see
   DESIGN.md) are printed by `boundedreg run all`. *)

module Q = Bits.Rational
module H = Tasks.Harness

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per timing-sensitive table.          *)

open Bechamel
open Toolkit

let run_alg1 ~k () =
  let algorithm = Core.Alg1_one_bit.algorithm ~k in
  ignore
    (H.run_once algorithm ~inputs:[| 0; 1 |]
       ~schedule:(`Random (Bits.Rng.make 1, []))
       ())

let run_fast ~rounds () =
  let algorithm = Core.Fast_agreement.algorithm ~delta:2 ~rounds in
  ignore
    (H.run_once algorithm ~inputs:[| 0; 1 |]
       ~schedule:(`Random (Bits.Rng.make 1, []))
       ())

let run_baseline ~rounds () =
  let algorithm = Core.Baseline_unbounded.algorithm ~n:2 ~rounds in
  ignore
    (H.run_once algorithm ~inputs:[| 0; 1 |]
       ~schedule:(`Random (Bits.Rng.make 1, []))
       ())

let run_bg_round () =
  let n = 3 in
  ignore
    (Iterated.Ic.run_random ~n ~budget:Bits.Width.Unbounded
       ~measure:Bits.Width.unbounded
       ~programs:(fun pid ->
         Iterated.Bg_snapshot.simulate ~n
           (Iterated.Proto.Round (pid, fun v -> Iterated.Proto.Decide v)))
       ~rng:(Bits.Rng.make 3) ())

let one_bit_table =
  lazy
    (Iterated.One_bit_sim.build_table ~n:2 ~rounds:2
       ~inputs:[ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]
       ~equal_input:Int.equal)

let run_one_bit_sim () =
  let table = Lazy.force one_bit_table in
  ignore
    (Iterated.Iis.run_random ~n:2 ~budget:(Bits.Width.Bounded 1)
       ~measure:(Bits.Width.uint ~max:1)
       ~programs:(fun pid ->
         Iterated.One_bit_sim.protocol ~table ~me:pid ~input:pid
           ~decide:(fun v -> v))
       ~rng:(Bits.Rng.make 5) ())

let run_alt_bit_transfer () =
  (* Push a 128-byte message through one alternating-bit link. *)
  let sender = Msgpass.Alt_bit.sender ~chunk:1 in
  let receiver = Msgpass.Alt_bit.receiver () in
  Msgpass.Alt_bit.send_string sender (String.make 128 'x');
  let data = ref (Msgpass.Alt_bit.initial_field ~chunk:1) in
  let ack = ref 0 in
  let received = ref 0 in
  while !received = 0 do
    (match Msgpass.Alt_bit.sender_poll sender ~ack_seen:!ack with
    | Some f -> data := f
    | None -> ());
    (match Msgpass.Alt_bit.receiver_poll receiver ~data_seen:!data with
    | [] -> ()
    | l -> received := List.length l);
    ack := Msgpass.Alt_bit.receiver_ack receiver
  done

let run_abd_ops () =
  (* One ABD write + read over the complete 5-process network. *)
  let n = 5 and t = 2 in
  let open Sched.Program.Infix in
  let program =
    let* () = Sched.Program.write 42 in
    let* v = Sched.Program.read 0 in
    Sched.Program.return v
  in
  let interps =
    Array.init n (fun me ->
        Msgpass.Interp.create ~n ~t ~me ~init:0
          ~program:(if me = 0 then program else Sched.Program.return (-1)))
  in
  let net =
    Msgpass.Net.create ~n
      ~nodes:(fun ~send pid -> Msgpass.Interp.node interps.(pid) ~send)
      ()
  in
  Msgpass.Faults.run_random ~rng:(Bits.Rng.make 9)
    ~profile:Msgpass.Faults.reliable (Msgpass.Faults.wrap net)

let run_chaos_sound () =
  (* One sound-quorum chaos run: faults + history recording + the
     linearizability decision. *)
  ignore (Msgpass.Chaos.run_random ~seed:1 (Msgpass.Chaos.sound ()))

let run_linearize_check () =
  (* Decide a 24-operation linearizable history (2 writers x 2 values
     interleaved with 4 readers x 5 reads on one register). *)
  let open Check.Linearize in
  let evs = ref [] in
  let clock = ref 0 in
  let tick () = incr clock; !clock in
  for w = 1 to 4 do
    let inv = tick () in
    evs := { proc = 0; reg = 0; op = Write w; inv; res = Some (tick ()) }
           :: !evs;
    for p = 1 to 4 do
      let inv = tick () in
      evs := { proc = p; reg = 0; op = Read w; inv; res = Some (tick ()) }
             :: !evs
    done
  done;
  match check ~init:(fun _ -> 0) ~equal:Int.equal !evs with
  | Linearizable _ -> ()
  | Nonlinearizable _ -> failwith "bench history must be linearizable"

let run_bmz_plan () =
  match Tasks.Bmz.plan (Tasks.Gallery.eps_grid ~k:4) with
  | Ok _ -> ()
  | Error e -> failwith e

(* The fixed explorer workload: 3 straight-line writers of 4 steps each —
   the test_sched count workload scaled to 3 processes. 34650 schedules
   naively. *)
let explore_workload_init () =
  let straight len : (int, unit, unit) Sched.Program.t =
    let rec go k =
      if k = 0 then Sched.Program.return ()
      else Sched.Program.Write (k, fun () -> go (k - 1))
    in
    go len
  in
  Sched.Scheduler.start
    ~memory:
      (Sched.Memory.create ~n:3 ~budget:Bits.Width.Unbounded
         ~measure:Bits.Width.unbounded ~init:0)
    ~programs:(fun _ -> straight 4)
    ()

let run_explore_engine () =
  ignore
    (Sched.Explore.explore ~init:explore_workload_init (fun _ -> ())
      : Sched.Explore.result)

let run_explore_raw () =
  ignore
    (Sched.Explore.explore ~dedup:false ~por:false ~init:explore_workload_init
       (fun _ -> ())
      : Sched.Explore.result)

(* Same workload with the flight recorder disarmed: the delta between
   this row and the always-on one is the recorder's whole cost on the
   hot path, and scripts/perf_gate.py caps the on/off ratio at 1.06. *)
let run_explore_raw_recorder_off () =
  Obs.Recorder.armed := false;
  Fun.protect
    ~finally:(fun () -> Obs.Recorder.armed := true)
    run_explore_raw

let run_labelling_value () =
  (* Closed-form pruned-path position at R = 20 (3^20-scale complex). *)
  let label =
    {
      Core.Labelling.me = 0;
      obs =
        List.init 20 (fun i -> if i mod 3 = 2 then None else Some (i mod 2));
    }
  in
  ignore (Core.Ring_sim.value ~delta:2 ~rounds:20 label)

let bench_rows : (string * (unit -> unit)) list =
  [
    ("alg1-eps-agreement(k=256)", run_alg1 ~k:256);
    ("fast-agreement(R=16,6-bit)", run_fast ~rounds:16);
    ("baseline-unbounded(R=16)", run_baseline ~rounds:16);
    ("bg-snapshot-round(n=3)", run_bg_round);
    ("one-bit-sim(n=2,2-rounds)", run_one_bit_sim);
    ("alt-bit-128-bytes", run_alt_bit_transfer);
    ("abd-write+read(n=5)", run_abd_ops);
    ("chaos-run(sound,n=4)", run_chaos_sound);
    ("linearize-check(24-ops)", run_linearize_check);
    ("bmz-plan(eps-grid-k=4)", run_bmz_plan);
    ("pruned-path-value(R=20)", run_labelling_value);
    ("explore-3x4(dedup+por)", run_explore_engine);
    ("explore-3x4(raw-undo)", run_explore_raw);
    ("explore-3x4(raw-undo,recorder-off)", run_explore_raw_recorder_off);
  ]

(* Each row carries Bechamel's OLS time estimate and the minor words one
   call allocates, counted with [Gc.minor_words] over as many calls as
   the warmup made. Bechamel's own [minor_allocated] instance reads
   [Gc.quick_stat], whose minor-word total OCaml 5 only brings up to
   date at a minor collection: a row that allocates a few hundred words
   per call read 0 through it.

   Rows are measured one at a time, each behind its own warmup, and in a
   seeded-shuffled order rather than declaration order. Declaration-order
   measurement is how an earlier snapshot recorded
   explore(raw-undo,recorder-off) as *slower* than the recorder-on row it
   follows: the earlier row paid the row's warmup (page faults, branch
   training, heap shape) on behalf of the later one. Warming each row
   before sampling removes the shared state, and decorrelating the order
   keeps any residual drift from systematically favoring whichever row
   happens to run second — so perf_gate.py's recorder ratio compares
   like with like. The shuffle seed is fixed: runs stay reproducible,
   just not declaration-ordered. *)
let measure_benchmarks () =
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let estimate_of results name =
    match Hashtbl.find_opt results name with
    | Some r -> (
        match Analyze.OLS.estimates r with Some [ est ] -> est | _ -> nan)
    | None -> nan
  in
  let order = Array.of_list bench_rows in
  Bits.Rng.shuffle (Bits.Rng.make 0xB10C) order;
  let rows = ref [] in
  Array.iter
    (fun (name, fn) ->
      let t0 = Unix.gettimeofday () in
      let calls = ref 0 in
      while Unix.gettimeofday () -. t0 < 0.05 do
        fn ();
        incr calls
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to !calls do
        fn ()
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int !calls in
      let test =
        Test.make_grouped ~name:"bounded-registers"
          [ Test.make ~name (Staged.stage fn) ]
      in
      let raw = Benchmark.all cfg [ Instance.monotonic_clock ] test in
      let times = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun key _ -> rows := (key, estimate_of times key, words) :: !rows)
        times)
    order;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows

let run_benchmarks () =
  Format.printf
    "------------------------------------------------------------------@\n\
     Bechamel timings (monotonic clock, OLS per call; minor words per call)@\n\
     ------------------------------------------------------------------@\n";
  measure_benchmarks ()
  |> List.iter (fun (name, ns, words) ->
         (if ns >= 1e6 then
            Format.printf "  %-45s %10.2f ms/call" name (ns /. 1e6)
          else if ns >= 1e3 then
            Format.printf "  %-45s %10.2f us/call" name (ns /. 1e3)
          else Format.printf "  %-45s %10.0f ns/call" name ns);
         Format.printf "  %12.0f mw/call@\n" words);
  Format.printf "@\n"

let () = run_benchmarks ()
