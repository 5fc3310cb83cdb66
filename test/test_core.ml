(* Tests for lib/core: the paper's algorithms. *)

module Alg1_one_bit = Core.Alg1_one_bit
module Q = Bits.Rational
module H = Tasks.Harness

let check_pass what = function
  | H.Pass _ -> ()
  | H.Fail v ->
      Alcotest.failf "%s: %a" what (H.pp_violation Format.pp_print_int) v

(* Algorithm 1: exhaustive over all interleavings for small k (Theorem 1.2,
   first half). *)
let test_alg1_exhaustive () =
  List.iter
    (fun k ->
      let task =
        Tasks.Eps_agreement.task ~n:2 ~k:(Alg1_one_bit.denominator ~k)
      in
      let algorithm = Alg1_one_bit.algorithm ~k in
      check_pass
        (Printf.sprintf "alg1 k=%d exhaustive" k)
        (H.check_exhaustive ~task ~algorithm ()))
    [ 1; 2; 3; 4 ]

(* With one crash allowed anywhere (wait-free = 1-resilient for n=2). *)
let test_alg1_crashes () =
  let k = 3 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(Alg1_one_bit.denominator ~k) in
  let algorithm = Alg1_one_bit.algorithm ~k in
  check_pass "alg1 with crashes"
    (H.check_exhaustive ~task ~algorithm ~max_crashes:1 ())

(* Random schedules for a larger k. *)
let test_alg1_random () =
  let k = 25 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(Alg1_one_bit.denominator ~k) in
  let algorithm = Alg1_one_bit.algorithm ~k in
  check_pass "alg1 random"
    (H.check_random ~task ~algorithm ~runs:500 ~seed:42 ())

(* Step complexity: at most 2k + 3 operations per process (Prop 5.1). *)
let test_alg1_step_bound () =
  let k = 10 in
  let task = Tasks.Eps_agreement.task ~n:2 ~k:(Alg1_one_bit.denominator ~k) in
  let algorithm = Alg1_one_bit.algorithm ~k in
  match H.check_random ~task ~algorithm ~runs:200 ~seed:7 () with
  | H.Fail v ->
      Alcotest.failf "alg1: %a" (H.pp_violation Format.pp_print_int) v
  | H.Pass stats ->
      Alcotest.(check bool)
        "steps <= 2k+3" true
        (stats.H.max_process_steps <= (2 * k) + 3);
      Alcotest.(check int) "register width is 1 bit" 1 stats.H.max_bits

(* Lemma 5.6 corollary: a solo process decides its own input. *)
let test_alg1_solo () =
  List.iter
    (fun (solo, input) ->
      let algorithm = Alg1_one_bit.algorithm ~k:4 in
      let inputs =
        if solo = 0 then [| input; 1 - input |] else [| 1 - input; input |]
      in
      let state =
        H.run_once algorithm ~inputs
          ~schedule:(`List (List.init 100 (fun _ -> solo)))
          ()
      in
      match Sched.Scheduler.status state solo with
      | Sched.Scheduler.Decided d ->
          Alcotest.(check bool)
            (Printf.sprintf "solo p%d decides its input" solo)
            true
            (Q.equal d (Q.of_int input))
      | _ -> Alcotest.fail "solo process did not decide")
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* Algorithm 2 (Theorem 1.2): universal 2-process construction. *)

let plan_of task_def =
  match Tasks.Bmz.plan task_def with
  | Ok plan -> plan
  | Error e -> Alcotest.fail e

let alg2_check_exhaustive ?max_crashes name task_def =
  let plan = plan_of task_def in
  let task = Tasks.Bmz.to_task task_def in
  let algorithm = Core.Alg2_universal.algorithm ~plan in
  match H.check_exhaustive ~task ~algorithm ?max_crashes () with
  | H.Pass stats ->
      Alcotest.(check bool)
        (name ^ ": 3-bit registers suffice")
        true
        (stats.H.max_bits <= 3)
  | H.Fail v ->
      Alcotest.failf "%s: %a" name (H.pp_violation Format.pp_print_int) v

let test_alg2_eps_grid () =
  alg2_check_exhaustive "eps-grid k=1" (Tasks.Gallery.eps_grid ~k:1)

let test_alg2_eps_grid_crash () =
  alg2_check_exhaustive ~max_crashes:1 "eps-grid k=1 + crash"
    (Tasks.Gallery.eps_grid ~k:1)

let test_alg2_renaming () =
  alg2_check_exhaustive "renaming3" Tasks.Gallery.renaming3

let test_alg2_always_zero () =
  alg2_check_exhaustive "always-zero" Tasks.Gallery.always_zero

let test_alg2_ternary () =
  alg2_check_exhaustive "hull-agreement" Tasks.Gallery.hull_agreement;
  alg2_check_exhaustive "weak-consensus" Tasks.Gallery.weak_consensus

let test_alg2_noisy_grid_searched () =
  (* The searched witness subset feeds Algorithm 2 just like a direct one. *)
  let task_def = Tasks.Gallery.noisy_grid in
  match Tasks.Bmz.plan_searching task_def with
  | Error e -> Alcotest.fail e
  | Ok plan -> (
      let task = Tasks.Bmz.to_task task_def in
      let algorithm = Core.Alg2_universal.algorithm ~plan in
      match H.check_exhaustive ~task ~algorithm ~max_crashes:1 () with
      | H.Pass _ -> ()
      | H.Fail v ->
          Alcotest.failf "noisy-grid: %a"
            (H.pp_violation Format.pp_print_int)
            v)

let test_alg2_random_bigger () =
  let task_def = Tasks.Gallery.eps_grid ~k:4 in
  let plan = plan_of task_def in
  let task = Tasks.Bmz.to_task task_def in
  let algorithm = Core.Alg2_universal.algorithm ~plan in
  check_pass "alg2 eps-grid k=4 random"
    (H.check_random ~task ~algorithm ~runs:400 ~seed:11 ())

(* Baseline (Lemma 2.2): unbounded-register wait-free eps-agreement. *)

let test_baseline_exhaustive () =
  let rounds = 2 in
  let task =
    Tasks.Eps_agreement.task ~n:2
      ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = Core.Baseline_unbounded.algorithm ~n:2 ~rounds in
  check_pass "baseline n=2 exhaustive"
    (H.check_exhaustive ~task ~algorithm ~max_steps:100000 ())

let test_baseline_random_n () =
  List.iter
    (fun (n, rounds) ->
      let task =
        Tasks.Eps_agreement.task ~n
          ~k:(Core.Baseline_unbounded.denominator ~rounds)
      in
      let algorithm = Core.Baseline_unbounded.algorithm ~n ~rounds in
      check_pass
        (Printf.sprintf "baseline n=%d R=%d random" n rounds)
        (H.check_random ~task ~algorithm ~runs:200 ~seed:5 ()))
    [ (2, 6); (3, 5); (5, 4) ]

let test_baseline_crashes () =
  let n = 4 and rounds = 4 in
  let task =
    Tasks.Eps_agreement.task ~n
      ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = Core.Baseline_unbounded.algorithm ~n ~rounds in
  check_pass "baseline wait-free with crashes"
    (H.check_random ~task ~algorithm ~resilience:(n - 1) ~runs:300 ~seed:17 ())

(* Lower bound (Theorem 1.1 / Section 4): the pigeonhole adversary. *)

module LB = Core.Lower_bound

let test_lb_threshold () =
  (* n = 3, t = 2, 1-bit registers: k = 2 * (2^1)^2 + 1 = 9. *)
  Alcotest.(check string)
    "threshold n=3 t=2 s=1" "1/9"
    (Q.to_string (LB.epsilon_threshold ~bits:1 ~n:3 ~t:2));
  (* n = 5, t = 3, 2-bit registers: k = 2 * 4^3 + 1 = 129. *)
  Alcotest.(check string)
    "threshold n=5 t=3 s=2" "1/129"
    (Q.to_string (LB.epsilon_threshold ~bits:2 ~n:5 ~t:3))

let test_lb_alg1_buckets () =
  List.iter
    (fun k ->
      let a = LB.analyse (LB.alg1_protocol ~k) in
      let eps = Q.make 1 ((2 * k) + 1) in
      (* 1-bit registers: at most 2^2 distinct words. *)
      Alcotest.(check bool) "words <= 4" true (a.LB.distinct_words <= 4);
      (* Some bucket spans 3 eps: the third process is forced more than eps
         away from a decision it must match (spread > 2 eps). *)
      Alcotest.(check string)
        (Printf.sprintf "bucket spread = 3 eps (k=%d)" k)
        (Q.to_string (Q.mul (Q.of_int 3) eps))
        (Q.to_string a.LB.max_spread);
      Alcotest.(check bool)
        "third-process error exceeds eps" true
        Q.(LB.third_process_error a > eps);
      (* Claim 4.1: every grid value is realized by some 2-process
         execution. *)
      Alcotest.(check int)
        "coverage hits the whole grid" ((2 * k) + 2)
        (List.length (LB.coverage a)))
    [ 2; 3 ]

let test_lb_witness () =
  let proto = LB.alg1_protocol ~k:2 in
  let w = LB.witness proto in
  let eps = Q.make 1 5 in
  Alcotest.(check string) "forced error = 3/2 eps" "3/10"
    (Q.to_string w.LB.forced_error);
  Alcotest.(check bool) "exceeds eps" true Q.(w.LB.forced_error > eps);
  (* Both witness schedules replay to their recorded outputs and leave the
     same register word. *)
  let replay schedule =
    let state =
      Sched.Scheduler.start
        ~memory:(proto.LB.memory ())
        ~programs:(fun pid -> proto.LB.program ~me:pid ~input:pid)
        ()
    in
    Sched.Scheduler.run_schedule state schedule;
    let outputs =
      match
        ((Sched.Scheduler.decisions state).(0),
         (Sched.Scheduler.decisions state).(1))
      with
      | Some a, Some b -> (a, b)
      | _ -> Alcotest.fail "witness replay: undecided"
    in
    let c = Sched.Memory.contents (Sched.Scheduler.memory state) in
    (outputs, (c.(0), c.(1)))
  in
  let (lo0, lo1), low_word = replay w.LB.low_schedule in
  let (hi0, hi1), high_word = replay w.LB.high_schedule in
  Alcotest.(check bool) "low outputs replayed" true
    (Q.equal lo0 (fst w.LB.low_outputs) && Q.equal lo1 (snd w.LB.low_outputs));
  Alcotest.(check bool) "high outputs replayed" true
    (Q.equal hi0 (fst w.LB.high_outputs)
    && Q.equal hi1 (snd w.LB.high_outputs));
  Alcotest.(check bool) "identical register words" true
    (low_word = w.LB.word && high_word = w.LB.word)

let test_lb_quantized_words () =
  let bits = 3 in
  let a = LB.analyse (LB.quantized_protocol ~bits ~rounds:3) in
  Alcotest.(check bool)
    "words bounded by 2^(2 bits)" true
    (a.LB.distinct_words <= 1 lsl (2 * bits));
  Alcotest.(check bool)
    "third-process error stays positive" true
    Q.(LB.third_process_error a > Q.zero)

(* Section 8: labelling, ring simulation, fast agreement (Theorem 8.1). *)

module L = Core.Labelling
module RS = Core.Ring_sim
module FA = Core.Fast_agreement

(* Lemma 8.1: 3^r + 1 labels forming a chromatic path with a consistent
   value map. *)
let test_labelling_path () =
  List.iter
    (fun r ->
      let pow3 =
        let rec go acc i = if i = 0 then acc else go (3 * acc) (i - 1) in
        go 1 r
      in
      let labels = ref [] in
      let execs = ref 0 in
      Iterated.Iis.enumerate ~n:2 ~budget:(Bits.Width.Bounded 1)
        ~measure:(Bits.Width.uint ~max:1)
        ~programs:(fun pid -> L.protocol ~rounds:r ~me:pid)
        ~max_rounds:r
        (fun o ->
          incr execs;
          match
            (o.Iterated.Iis.decisions.(0), o.Iterated.Iis.decisions.(1))
          with
          | Some l0, Some l1 ->
              Alcotest.(check string)
                "co-final labels one grain apart"
                (Q.to_string (Q.make 1 pow3))
                (Q.to_string (Q.abs (Q.sub (L.value l0) (L.value l1))));
              List.iter
                (fun l ->
                  if not (List.exists (L.equal l) !labels) then
                    labels := l :: !labels)
                [ l0; l1 ]
          | _ -> Alcotest.fail "labelling: undecided")
        ;
      Alcotest.(check int)
        (Printf.sprintf "3^%d + 1 labels" r)
        (pow3 + 1)
        (List.length !labels);
      let values = List.map L.value !labels in
      Alcotest.(check int) "value map injective" (pow3 + 1)
        (List.length (List.sort_uniq Q.compare values));
      Alcotest.(check bool) "solo ends at 0 and 1" true
        (List.exists (Q.equal Q.zero) values
        && List.exists (Q.equal Q.one) values))
    [ 1; 2; 3; 4; 5 ]

(* Algorithm 6: every simulated execution yields co-final labels exactly one
   pruned-path grain apart, and the pruned path has >= 2^R edges
   (Lemma 8.7). *)
let test_ring_sim_exhaustive () =
  List.iter
    (fun (delta, rounds) ->
      let total = RS.executions_count ~delta ~rounds in
      Alcotest.(check bool)
        (Printf.sprintf "2^%d executions (delta=%d)" rounds delta)
        true
        (total >= 1 lsl rounds);
      let mem () =
        Sched.Memory.create ~n:2
          ~budget:(Bits.Width.Bounded (RS.register_bits ~delta))
          ~measure:(RS.measure ~delta) ~init:(RS.initial ~delta)
      in
      let init () =
        Sched.Scheduler.start ~memory:(mem ())
          ~programs:(fun pid -> RS.protocol ~delta ~rounds ~me:pid)
          ()
      in
      let distinct = ref [] in
      let (_ : Sched.Explore.result) =
        Sched.Explore.explore ~max_steps:100_000 ~init (fun st ->
          match
            ( (Sched.Scheduler.decisions st).(0),
              (Sched.Scheduler.decisions st).(1) )
          with
          | Some l0, Some l1 ->
              Alcotest.(check string) "one grain apart"
                (Q.to_string (Q.make 1 total))
                (Q.to_string
                   (Q.abs
                      (Q.sub
                         (RS.value ~delta ~rounds l0)
                         (RS.value ~delta ~rounds l1))));
              if
                not
                  (List.exists
                     (fun (a, b) -> L.equal a l0 && L.equal b l1)
                     !distinct)
              then distinct := (l0, l1) :: !distinct
          | _ -> Alcotest.fail "ring sim: undecided")
      in
      (* The simulation reaches every pruned execution. *)
      Alcotest.(check int) "all pruned executions realized" total
        (List.length !distinct))
    [ (2, 3); (2, 4); (3, 3) ]

(* Theorem 8.1 end-to-end: 6-bit registers, eps = 1/executions_count. *)
let test_fast_agreement_exhaustive () =
  let delta = 2 and rounds = 3 in
  let task =
    Tasks.Eps_agreement.task ~n:2 ~k:(FA.denominator ~delta ~rounds)
  in
  let algorithm = FA.algorithm ~delta ~rounds in
  match H.check_exhaustive ~task ~algorithm ~max_crashes:1 () with
  | H.Fail v ->
      Alcotest.failf "fast agreement: %a"
        (H.pp_violation Format.pp_print_int)
        v
  | H.Pass stats ->
      Alcotest.(check int) "6-bit registers" 6 stats.H.max_bits

let test_fast_agreement_random () =
  let delta = 2 and rounds = 12 in
  let task =
    Tasks.Eps_agreement.task ~n:2 ~k:(FA.denominator ~delta ~rounds)
  in
  let algorithm = FA.algorithm ~delta ~rounds in
  match H.check_random ~task ~algorithm ~runs:500 ~seed:3 () with
  | H.Fail v ->
      Alcotest.failf "fast agreement: %a"
        (H.pp_violation Format.pp_print_int)
        v
  | H.Pass stats ->
      (* O(rounds) steps: 2 per simulated round plus input handling. *)
      Alcotest.(check bool) "steps <= 2R + 3" true
        (stats.H.max_process_steps <= (2 * rounds) + 3);
      Alcotest.(check bool) "eps below 2^-R" true
        (FA.denominator ~delta ~rounds >= 1 lsl rounds)

(* Lemma 2.4: IIS protocols embedded in plain shared memory via BG. *)

let test_iis_in_sm_exhaustive () =
  let n = 2 and rounds = 1 in
  let task =
    Tasks.Eps_agreement.task ~n
      ~k:(Iterated.Agreement.denominator ~rounds)
  in
  let algorithm =
    Core.Iis_in_sm.algorithm ~n ~name:"iis-in-sm"
      ~source:(fun ~pid:_ ~input ->
        Iterated.Agreement.protocol ~rounds ~input)
  in
  check_pass "IIS-in-SM exhaustive"
    (H.check_exhaustive ~task ~algorithm ~max_crashes:1 ~max_steps:100_000 ())

let test_iis_in_sm_random () =
  List.iter
    (fun (n, rounds) ->
      let task =
        Tasks.Eps_agreement.task ~n
          ~k:(Iterated.Agreement.denominator ~rounds)
      in
      let algorithm =
        Core.Iis_in_sm.algorithm ~n ~name:"iis-in-sm"
          ~source:(fun ~pid:_ ~input ->
            Iterated.Agreement.protocol ~rounds ~input)
      in
      match H.check_random ~task ~algorithm ~runs:150 ~seed:23 () with
      | H.Fail v ->
          Alcotest.failf "iis-in-sm n=%d: %a" n
            (H.pp_violation Format.pp_print_int)
            v
      | H.Pass stats ->
          (* n (n+1) steps per simulated round. *)
          Alcotest.(check bool) "step bound" true
            (stats.H.max_process_steps <= rounds * n * (n + 1)))
    [ (2, 3); (3, 2); (4, 2) ]

(* The embedded rounds still produce genuine immediate snapshots. *)
let test_iis_in_sm_snapshot_props () =
  let n = 3 in
  let algorithm =
    Core.Iis_in_sm.algorithm ~n ~name:"iis-in-sm-views"
      ~source:(fun ~pid ~input:_ ->
        Iterated.Proto.Round (pid, fun view -> Iterated.Proto.Decide view))
  in
  for seed = 0 to 199 do
    let state =
      H.run_once algorithm
        ~inputs:[| 0; 1; 2 |]
        ~schedule:(`Random (Bits.Rng.make seed, []))
        ()
    in
    let views =
      Array.map
        (function Some v -> v | None -> Alcotest.fail "undecided")
        (Sched.Scheduler.decisions state)
    in
    let written = Array.init n (fun i -> i) in
    Alcotest.(check bool) "validity" true
      (Iterated.Views.validity ~equal:Int.equal ~written views);
    Alcotest.(check bool) "self-containment" true
      (Iterated.Views.self_containment views);
    Alcotest.(check bool) "inclusion" true
      (Iterated.Views.inclusion ~equal:Int.equal views);
    Alcotest.(check bool) "immediacy" true
      (Iterated.Views.immediacy ~equal:Int.equal views)
  done

(* Graphviz renderings have the right vertex/edge counts. *)

let count_substring needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go acc i =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (acc + 1) (i + 1)
    else go acc (i + 1)
  in
  go 0 0

let test_viz_counts () =
  let dot = Experiments.Viz.labelling_path ~rounds:2 in
  Alcotest.(check int) "10 vertices" 10 (count_substring "label=\"p" dot);
  Alcotest.(check int) "9 edges" 9 (count_substring " -- " dot);
  let g = Experiments.Viz.bmz_graph Tasks.Gallery.renaming3 in
  Alcotest.(check int) "renaming3: 6 configs" 6 (count_substring "label=" g);
  let p = Experiments.Viz.pruned_path ~delta:2 ~rounds:3 in
  (* 23 pruned executions -> 24 vertices (E8). *)
  Alcotest.(check int) "pruned path edges" 23 (count_substring " -- " p)

(* Lemma 2.1 via exhaustive protocol search: no 1-bit bounded-round
   protocol solves 1-resilient binary consensus. *)

module CS = Core.Consensus_search

let test_consensus_search_none () =
  List.iter
    (fun rounds ->
      let s = CS.search ~rounds in
      Alcotest.(check int) "class fully enumerated"
        (Oracle.Props.candidate_count ~rounds) s.CS.total;
      Alcotest.(check int)
        (Printf.sprintf "no %d-round protocol survives" rounds)
        0
        (List.length s.CS.survivors))
    [ 1; 2 ]

(* Positive control: the same search machinery does find survivors for a
   solvable task (validity only, no agreement) — the adversary is not
   vacuously rejecting everything. *)
let test_consensus_search_control () =
  let validity_only =
    {
      (Tasks.Consensus.binary ~n:2) with
      Tasks.Task.name = "validity-only";
      legal =
        (fun ~inputs ~outputs ->
          Array.for_all
            (function
              | None -> true
              | Some d -> Array.exists (Int.equal d) inputs)
            outputs);
    }
  in
  let survivors = ref 0 in
  Seq.iter
    (fun candidate ->
      let algorithm =
        {
          H.name = "control";
          memory =
            (fun () ->
              Sched.Memory.create ~n:2 ~budget:(Bits.Width.Bounded 1)
                ~measure:(Bits.Width.uint ~max:1) ~init:0);
          program = (fun ~pid ~input -> CS.program candidate ~me:pid ~input);
        }
      in
      match
        H.check_exhaustive ~task:validity_only ~algorithm ~max_crashes:1 ()
      with
      | H.Pass _ -> incr survivors
      | H.Fail _ -> ())
    (CS.candidates ~rounds:1);
  Alcotest.(check bool) "solvable relaxation has survivors" true
    (!survivors > 0)

let () =
  Alcotest.run "core"
    [
      ( "alg1",
        [
          Alcotest.test_case "exhaustive k=1..4" `Quick test_alg1_exhaustive;
          Alcotest.test_case "exhaustive with crash" `Quick test_alg1_crashes;
          Alcotest.test_case "random k=25" `Quick test_alg1_random;
          Alcotest.test_case "step bound 2k+3" `Quick test_alg1_step_bound;
          Alcotest.test_case "solo decides input" `Quick test_alg1_solo;
        ] );
      ( "alg2",
        [
          Alcotest.test_case "eps-grid k=1 exhaustive" `Quick
            test_alg2_eps_grid;
          Alcotest.test_case "eps-grid k=1 with crash" `Quick
            test_alg2_eps_grid_crash;
          Alcotest.test_case "renaming3 exhaustive" `Quick test_alg2_renaming;
          Alcotest.test_case "always-zero exhaustive" `Quick
            test_alg2_always_zero;
          Alcotest.test_case "ternary tasks exhaustive" `Quick
            test_alg2_ternary;
          Alcotest.test_case "noisy-grid via subset search" `Quick
            test_alg2_noisy_grid_searched;
          Alcotest.test_case "eps-grid k=4 random" `Quick
            test_alg2_random_bigger;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "n=2 exhaustive" `Quick test_baseline_exhaustive;
          Alcotest.test_case "n=2,3,5 random" `Quick test_baseline_random_n;
          Alcotest.test_case "wait-free with crashes" `Quick
            test_baseline_crashes;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "epsilon threshold formula" `Quick
            test_lb_threshold;
          Alcotest.test_case "alg1 bucket spread = 3 eps" `Quick
            test_lb_alg1_buckets;
          Alcotest.test_case "quantized word count" `Quick
            test_lb_quantized_words;
          Alcotest.test_case "concrete witness executions" `Quick
            test_lb_witness;
        ] );
      ( "section8",
        [
          Alcotest.test_case "labelling: 3^r+1 path" `Quick
            test_labelling_path;
          Alcotest.test_case "ring simulation exhaustive" `Quick
            test_ring_sim_exhaustive;
          Alcotest.test_case "fast agreement exhaustive + crash" `Quick
            test_fast_agreement_exhaustive;
          Alcotest.test_case "fast agreement random R=12" `Quick
            test_fast_agreement_random;
        ] );
      ( "viz",
        [ Alcotest.test_case "dot structure" `Quick test_viz_counts ] );
      ( "iis-in-sm",
        [
          Alcotest.test_case "exhaustive (n=2)" `Quick
            test_iis_in_sm_exhaustive;
          Alcotest.test_case "random n=2,3,4" `Quick test_iis_in_sm_random;
          Alcotest.test_case "snapshot properties" `Quick
            test_iis_in_sm_snapshot_props;
        ] );
      ( "consensus-search",
        [
          Alcotest.test_case "no protocol survives (Lemma 2.1)" `Quick
            test_consensus_search_none;
          Alcotest.test_case "positive control" `Quick
            test_consensus_search_control;
        ] );
    ]
