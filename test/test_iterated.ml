(* Tests for lib/iterated: IIS and IC substrates, snapshot properties,
   Borowsky-Gafni (Algorithm 5), and the 1-bit simulation (Algorithm 4). *)

module Q = Bits.Rational
module Iis = Iterated.Iis
module Ic = Iterated.Ic
module Views = Iterated.Views
module Proto = Iterated.Proto
module Full_info = Iterated.Full_info
module Bg = Iterated.Bg_snapshot
module Agreement = Iterated.Agreement
module Sim1 = Iterated.One_bit_sim

let pids n = List.init n (fun i -> i)

let test_partition_counts () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "ordered partitions of %d" n)
        expected
        (List.length (Iis.ordered_partitions (pids n))))
    [ (1, 1); (2, 3); (3, 13); (4, 75) ]

let test_ic_matrices_match () =
  List.iter
    (fun n ->
      let a = Ic.all_matrices ~n ~participants:(pids n) in
      let b =
        Oracle.Ic_brute.matrices_by_interleaving ~n ~participants:(pids n)
      in
      let subset xs ys =
        List.for_all (fun x -> List.exists (fun y -> y = x) ys) xs
      in
      Alcotest.(check bool)
        (Printf.sprintf "characterization = brute force (n=%d)" n)
        true
        (subset a b && subset b a))
    [ 2; 3 ]

(* One write-pid round; decisions are the immediate-snapshot views. *)
let one_round_views ~model ~n visit =
  let programs pid = Proto.Round (pid, fun view -> Proto.Decide view) in
  let collect outcome_decisions =
    Array.map
      (function Some v -> v | None -> Alcotest.fail "process undecided")
      outcome_decisions
  in
  match model with
  | `Iis ->
      Iis.enumerate ~n ~budget:Bits.Width.Unbounded
        ~measure:Bits.Width.unbounded ~programs ~max_rounds:1 (fun o ->
          visit (collect o.Iis.decisions))
  | `Ic ->
      Ic.enumerate ~n ~budget:Bits.Width.Unbounded
        ~measure:Bits.Width.unbounded ~programs ~max_rounds:1 (fun o ->
          visit (collect o.Ic.decisions))

let test_iis_snapshot_properties () =
  let n = 3 in
  let count = ref 0 in
  one_round_views ~model:`Iis ~n (fun views ->
      incr count;
      let written = Array.init n (fun i -> i) in
      Alcotest.(check bool) "validity" true
        (Views.validity ~equal:Int.equal ~written views);
      Alcotest.(check bool) "self-containment" true
        (Views.self_containment views);
      Alcotest.(check bool) "inclusion" true
        (Views.inclusion ~equal:Int.equal views);
      Alcotest.(check bool) "immediacy" true
        (Views.immediacy ~equal:Int.equal views));
  Alcotest.(check int) "13 one-round IS executions" 13 !count

let test_write_order_consistency () =
  (* Every one-round IC outcome admits a consistent write order; every
     one-round IS outcome does too (snapshots are collects). *)
  List.iter
    (fun model ->
      one_round_views ~model ~n:3 (fun views ->
          Alcotest.(check bool) "some order consistent" true
            (Oracle.Props.consistent_with_some_order ~equal:Int.equal
               ~written:[| 0; 1; 2 |] views)))
    [ `Iis; `Ic ];
  (* A fabricated mutual miss admits none. *)
  let views =
    [| [| Some 0; None |]; [| None; Some 1 |] |]
  in
  Alcotest.(check bool) "mutual miss rejected" false
    (Oracle.Props.consistent_with_some_order ~equal:Int.equal
       ~written:[| 0; 1 |] views)

let test_ic_collect_weaker () =
  let n = 3 in
  let inclusion_holds = ref 0 and total = ref 0 in
  one_round_views ~model:`Ic ~n (fun views ->
      incr total;
      let written = Array.init n (fun i -> i) in
      Alcotest.(check bool) "validity" true
        (Views.validity ~equal:Int.equal ~written views);
      Alcotest.(check bool) "self-containment" true
        (Views.self_containment views);
      if Views.inclusion ~equal:Int.equal views then incr inclusion_holds);
  Alcotest.(check int) "25 one-round IC executions" 25 !total;
  (* Collect is strictly weaker than snapshot: some outcomes violate
     inclusion. *)
  Alcotest.(check bool) "inclusion sometimes fails" true
    (!inclusion_holds < !total)

(* Figure 4: the 2-process IS protocol complex is a path; 3^r executions and
   3^r + 1 distinct final states after r rounds. *)
let test_figure4_growth () =
  List.iter
    (fun r ->
      let programs pid =
        Full_info.protocol ~rounds:r ~me:pid ~input:0 ~decide:(fun v -> v)
      in
      let execs = ref 0 in
      let states = ref [] in
      let eq = Full_info.equal Int.equal in
      Iis.enumerate ~n:2 ~budget:Bits.Width.Unbounded
        ~measure:Bits.Width.unbounded ~programs ~max_rounds:r (fun o ->
          incr execs;
          Array.iter
            (function
              | None -> Alcotest.fail "undecided"
              | Some v ->
                  if not (List.exists (eq v) !states) then
                    states := v :: !states)
            o.Iis.decisions);
      let pow3 =
        let rec go acc i = if i = 0 then acc else go (3 * acc) (i - 1) in
        go 1 r
      in
      Alcotest.(check int) (Printf.sprintf "3^%d executions" r) pow3 !execs;
      Alcotest.(check int)
        (Printf.sprintf "3^%d + 1 states" r)
        (pow3 + 1)
        (List.length !states))
    [ 1; 2; 3; 4 ]

let check_agreement ~eps ~inputs decisions =
  let decided =
    Array.to_list decisions |> List.filter_map (fun d -> d)
  in
  Alcotest.(check bool) "spread within eps" true
    Q.(Q.spread decided <= eps);
  if Array.for_all (Int.equal 0) inputs then
    List.iter
      (fun d -> Alcotest.(check bool) "validity 0" true (Q.equal d Q.zero))
      decided;
  if Array.for_all (Int.equal 1) inputs then
    List.iter
      (fun d -> Alcotest.(check bool) "validity 1" true (Q.equal d Q.one))
      decided

let binary_configs n =
  let rec go k =
    if k = 0 then [ [] ]
    else List.concat_map (fun tl -> [ 0 :: tl; 1 :: tl ]) (go (k - 1))
  in
  List.map Array.of_list (go n)

let test_iis_agreement () =
  List.iter
    (fun (n, rounds) ->
      let eps = Q.make 1 (Agreement.denominator ~rounds) in
      List.iter
        (fun inputs ->
          Iis.enumerate ~n ~budget:Bits.Width.Unbounded
            ~measure:Bits.Width.unbounded
            ~programs:(fun pid ->
              Agreement.protocol ~rounds ~input:inputs.(pid))
            ~max_rounds:rounds
            (fun o -> check_agreement ~eps ~inputs o.Iis.decisions))
        (binary_configs n))
    [ (2, 3); (3, 2) ]

(* Algorithm 5 (Lemma 2.3 / Prop 7.2): BG outputs are immediate snapshots. *)
let test_bg_snapshot_properties () =
  List.iter
    (fun n ->
      let programs pid =
        Bg.simulate ~n (Proto.Round (pid, fun view -> Proto.Decide view))
      in
      let total = ref 0 in
      Ic.enumerate ~n ~budget:Bits.Width.Unbounded
        ~measure:Bits.Width.unbounded ~programs ~max_rounds:n (fun o ->
          incr total;
          let views =
            Array.map
              (function
                | Some v -> v | None -> Alcotest.fail "BG: undecided")
              o.Ic.decisions
          in
          let written = Array.init n (fun i -> i) in
          Alcotest.(check bool) "validity" true
            (Views.validity ~equal:Int.equal ~written views);
          Alcotest.(check bool) "self-containment" true
            (Views.self_containment views);
          Alcotest.(check bool) "inclusion" true
            (Views.inclusion ~equal:Int.equal views);
          Alcotest.(check bool) "immediacy" true
            (Views.immediacy ~equal:Int.equal views));
      Alcotest.(check bool) "enumerated something" true (!total > 0))
    [ 2; 3 ]

(* BG with crashes: surviving processes still get immediate snapshots. *)
let test_bg_snapshot_crashes () =
  let n = 3 in
  let programs pid =
    Bg.simulate ~n (Proto.Round (pid, fun view -> Proto.Decide view))
  in
  for seed = 0 to 99 do
    let rng = Bits.Rng.make seed in
    let o =
      Ic.run_random ~n ~budget:Bits.Width.Unbounded
        ~measure:Bits.Width.unbounded ~programs ~rng ~crash_probability:0.2
        ()
    in
    let views =
      Array.to_list o.Ic.decisions |> List.filter_map (fun d -> d)
    in
    let views = Array.of_list views in
    if Array.length views > 0 then begin
      Alcotest.(check bool) "survivor views non-empty" true
        (Array.for_all (Array.exists Option.is_some) views);
      Alcotest.(check bool) "inclusion (survivors)" true
        (Views.inclusion ~equal:Int.equal views)
    end
  done

(* Prop 7.2 end-to-end: the IIS agreement protocol transported to IC by BG
   still solves agreement. *)
let test_bg_agreement_in_ic () =
  let n = 2 and rounds = 3 in
  let eps = Q.make 1 (Agreement.denominator ~rounds) in
  List.iter
    (fun inputs ->
      Ic.enumerate ~n ~budget:Bits.Width.Unbounded
        ~measure:Bits.Width.unbounded
        ~programs:(fun pid ->
          Bg.simulate ~n (Agreement.protocol ~rounds ~input:inputs.(pid)))
        ~max_rounds:(n * rounds)
        (fun o -> check_agreement ~eps ~inputs o.Ic.decisions))
    (binary_configs n)

(* Full_info.replay reconstructs protocol states from views alone. *)
let test_replay_consistency () =
  let n = 2 and rounds = 2 in
  let make ~pid:_ ~input = Agreement.protocol ~rounds ~input in
  let inputs = [| 0; 1 |] in
  let fi_programs pid =
    Full_info.protocol ~rounds ~me:pid ~input:inputs.(pid)
      ~decide:(fun v -> v)
  in
  Ic.enumerate ~n ~budget:Bits.Width.Unbounded
    ~measure:Bits.Width.unbounded ~programs:fi_programs ~max_rounds:rounds
    (fun o ->
      (* Re-run the agreement protocol directly under the same plans. *)
      let schedule ~round ~participants:_ = List.nth o.Ic.history (round - 1) in
      let direct =
        Ic.run ~n ~budget:Bits.Width.Unbounded ~measure:Bits.Width.unbounded
          ~programs:(fun pid -> make ~pid ~input:inputs.(pid))
          ~schedule ~max_rounds:rounds ()
      in
      Array.iteri
        (fun i d ->
          match (d, direct.Ic.decisions.(i)) with
          | Some view, Some expected ->
              let replayed =
                match Full_info.replay ~make view with
                | Proto.Decide d -> d
                | Proto.Round _ -> Alcotest.fail "replay: still running"
              in
              Alcotest.(check string) "replay = direct"
                (Q.to_string expected) (Q.to_string replayed)
          | _ -> Alcotest.fail "undecided")
        o.Ic.decisions)

(* An immediate-snapshot round is a collect round in which each block sees
   every block up to its own. So every IIS execution of the
   full-information protocol, driven through IC by its partitions'
   block-order matrices, must end the same way. The converter is written
   here, independently of the library's. *)
let block_order_matrix ~n partition =
  let sees = Array.make_matrix n n false in
  ignore
    (List.fold_left
       (fun written block ->
         let written = block @ written in
         List.iter
           (fun i -> List.iter (fun j -> sees.(i).(j) <- true) written)
           block;
         written)
       [] partition);
  sees

let test_iis_as_ic () =
  let n = 3 and rounds = 2 in
  let programs pid =
    Full_info.protocol ~rounds ~me:pid ~input:(10 * pid) ~decide:(fun v -> v)
  in
  (* A measure that varies with the schedule, so max_bits is compared. *)
  let rec size = function
    | Full_info.Input _ -> 1
    | Full_info.Observed { seen; _ } ->
        Array.fold_left
          (fun acc -> function None -> acc | Some v -> acc + size v)
          1 seen
  in
  let same_view a b =
    match (a, b) with
    | Some a, Some b -> Full_info.equal Int.equal a b
    | None, None -> true
    | _ -> false
  in
  let executions = ref 0 in
  Iis.enumerate ~n ~budget:Bits.Width.Unbounded ~measure:size ~programs
    ~max_rounds:rounds (fun o ->
      incr executions;
      let schedule ~round ~participants:_ =
        let partition = List.nth o.Iis.history (round - 1) in
        {
          Ic.survivors = List.concat partition;
          sees = block_order_matrix ~n partition;
        }
      in
      let ic =
        Ic.run ~n ~budget:Bits.Width.Unbounded ~measure:size ~programs
          ~schedule ~max_rounds:rounds ()
      in
      Alcotest.(check bool) "decisions" true
        (Array.for_all2 same_view o.Iis.decisions ic.Ic.decisions);
      Alcotest.(check (array int)) "rounds_taken" o.Iis.rounds_taken
        ic.Ic.rounds_taken;
      Alcotest.(check int) "max_bits" o.Iis.max_bits ic.Ic.max_bits);
  Alcotest.(check int) "13^2 executions" 169 !executions

(* A round's schedule may only name current participants, each once, and
   an IC round's matrix must be realizable. A stray array access is not a
   rejection. *)
let rejected what f =
  match f () with
  | exception Invalid_argument m when m <> "index out of bounds" -> ()
  | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: schedule accepted" what

let two_rounds pid =
  Proto.Round (pid, fun _ -> Proto.Round (pid, fun view -> Proto.Decide view))

(* Runs stop after the listed plans: [max_rounds] is their count. *)
let scheduled plans ~round ~participants:_ = List.nth plans (round - 1)

let test_iis_schedule_validated () =
  let run plans () =
    Iis.run ~n:2 ~budget:Bits.Width.Unbounded ~measure:Bits.Width.unbounded
      ~programs:two_rounds ~schedule:(scheduled plans)
      ~max_rounds:(List.length plans) ()
  in
  rejected "pid in two blocks" (run [ [ [ 0 ]; [ 0; 1 ] ] ]);
  rejected "pid out of range" (run [ [ [ 0; 1; 2 ] ] ]);
  rejected "crashed pid" (run [ [ [ 0 ] ]; [ [ 0 ]; [ 1 ] ] ])

let test_ic_schedule_validated () =
  let n = 3 in
  let plan survivors = { Ic.survivors; sees = Array.make_matrix n n true } in
  let run ?(programs = two_rounds) plans () =
    Ic.run ~n ~budget:Bits.Width.Unbounded ~measure:Bits.Width.unbounded
      ~programs ~schedule:(scheduled plans) ~max_rounds:(List.length plans) ()
  in
  rejected "pid listed twice" (run [ plan [ 0; 0; 1 ] ]);
  rejected "pid out of range" (run [ plan [ 0; 1; 3 ] ]);
  rejected "crashed pid" (run [ plan [ 0; 1 ]; plan [ 0; 1; 2 ] ]);
  let programs pid =
    if pid = 0 then Proto.Round (pid, fun view -> Proto.Decide view)
    else two_rounds pid
  in
  rejected "decided pid"
    (run ~programs [ plan [ 0; 1; 2 ]; plan [ 0; 1; 2 ] ]);
  let matrix rows () =
    Ic.run ~n:2 ~budget:Bits.Width.Unbounded ~measure:Bits.Width.unbounded
      ~programs:two_rounds
      ~schedule:(fun ~round:_ ~participants:_ ->
        {
          Ic.survivors = [ 0; 1 ];
          sees = Array.of_list (List.map Array.of_list rows);
        })
      ~max_rounds:1 ()
  in
  rejected "survivors miss their own writes"
    (matrix [ [ false; false ]; [ false; false ] ]);
  rejected "mutual miss" (matrix [ [ true; false ]; [ false; true ] ]);
  rejected "1x1 matrix for n = 2" (matrix [ [ true ] ])

(* Algorithm 4: exhaustive for one simulated round. *)
let test_one_bit_sim_exhaustive () =
  let n = 2 in
  let table =
    Sim1.build_table ~n ~rounds:1 ~inputs:(binary_configs n)
      ~equal_input:Int.equal
  in
  Alcotest.(check int) "4 iterations" 4 (Sim1.total_iterations table);
  List.iter
    (fun inputs ->
      Iis.enumerate ~n ~budget:(Bits.Width.Bounded 1)
        ~measure:(Bits.Width.uint ~max:1)
        ~programs:(fun pid ->
          Sim1.protocol ~table ~me:pid ~input:inputs.(pid)
            ~decide:(fun v -> v))
        ~max_rounds:(Sim1.total_iterations table)
        (fun o ->
          Alcotest.(check bool) "1-bit registers" true (o.Iis.max_bits <= 1);
          let partial = o.Iis.decisions in
          Alcotest.(check bool) "simulated config reachable" true
            (Sim1.is_reachable table ~round:1 partial)))
    (binary_configs n)

(* Algorithm 4 over two simulated rounds, random IIS schedules. *)
let test_one_bit_sim_random () =
  let n = 2 and rounds = 2 in
  let table =
    Sim1.build_table ~n ~rounds ~inputs:(binary_configs n)
      ~equal_input:Int.equal
  in
  Alcotest.(check int) "4 + 12 iterations" 16 (Sim1.total_iterations table);
  for seed = 0 to 199 do
    let rng = Bits.Rng.make seed in
    let inputs = [| Bits.Rng.int rng 2; Bits.Rng.int rng 2 |] in
    let o =
      Iis.run_random ~n ~budget:(Bits.Width.Bounded 1)
        ~measure:(Bits.Width.uint ~max:1)
        ~programs:(fun pid ->
          Sim1.protocol ~table ~me:pid ~input:inputs.(pid)
            ~decide:(fun v -> v))
        ~rng ~crash_probability:0.05 ()
    in
    Alcotest.(check bool) "simulated config reachable" true
      (Sim1.is_reachable table ~round:rounds o.Iis.decisions)
  done

(* Theorem 1.4 end-to-end: IIS agreement (unbounded) -> BG -> IC full-info ->
   Algorithm 4 -> 1-bit IIS, still solving agreement. *)
let test_theorem_1_4_end_to_end () =
  let n = 2 and rounds = 1 in
  let ic_rounds = n * rounds in
  let eps = Q.make 1 (Agreement.denominator ~rounds) in
  let make ~pid:_ ~input =
    Bg.simulate ~n (Agreement.protocol ~rounds ~input)
  in
  let decide view =
    match Full_info.replay ~make view with
    | Proto.Decide d -> d
    | Proto.Round _ -> Alcotest.fail "chain: replay still running"
  in
  let table =
    Sim1.build_table ~n ~rounds:ic_rounds ~inputs:(binary_configs n)
      ~equal_input:Int.equal
  in
  for seed = 0 to 299 do
    let rng = Bits.Rng.make (1000 + seed) in
    let inputs = [| Bits.Rng.int rng 2; Bits.Rng.int rng 2 |] in
    let o =
      Iis.run_random ~n ~budget:(Bits.Width.Bounded 1)
        ~measure:(Bits.Width.uint ~max:1)
        ~programs:(fun pid ->
          Sim1.protocol ~table ~me:pid ~input:inputs.(pid) ~decide)
        ~rng ~crash_probability:0.03 ()
    in
    Alcotest.(check bool) "1-bit registers" true (o.Iis.max_bits <= 1);
    check_agreement ~eps ~inputs o.Iis.decisions
  done

let () =
  Alcotest.run "iterated"
    [
      ( "substrates",
        [
          Alcotest.test_case "ordered partition counts" `Quick
            test_partition_counts;
          Alcotest.test_case "IC matrices = brute force" `Quick
            test_ic_matrices_match;
          Alcotest.test_case "IS snapshot properties" `Quick
            test_iis_snapshot_properties;
          Alcotest.test_case "IC collect weaker than snapshot" `Quick
            test_ic_collect_weaker;
          Alcotest.test_case "write-order consistency" `Quick
            test_write_order_consistency;
          Alcotest.test_case "figure 4: 3^r growth" `Quick
            test_figure4_growth;
          Alcotest.test_case "IIS midpoint agreement" `Quick
            test_iis_agreement;
          Alcotest.test_case "IIS = IC under block-order matrices" `Quick
            test_iis_as_ic;
          Alcotest.test_case "IIS schedules validated" `Quick
            test_iis_schedule_validated;
          Alcotest.test_case "IC schedules validated" `Quick
            test_ic_schedule_validated;
        ] );
      ( "bg-snapshot",
        [
          Alcotest.test_case "IS properties from IC" `Quick
            test_bg_snapshot_properties;
          Alcotest.test_case "with crashes" `Quick test_bg_snapshot_crashes;
          Alcotest.test_case "agreement through BG" `Quick
            test_bg_agreement_in_ic;
        ] );
      ( "one-bit",
        [
          Alcotest.test_case "replay consistency" `Quick
            test_replay_consistency;
          Alcotest.test_case "algorithm 4 exhaustive (1 round)" `Quick
            test_one_bit_sim_exhaustive;
          Alcotest.test_case "algorithm 4 random (2 rounds)" `Quick
            test_one_bit_sim_random;
          Alcotest.test_case "theorem 1.4 end-to-end" `Quick
            test_theorem_1_4_end_to_end;
        ] );
    ]
