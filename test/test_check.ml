(* Tests for lib/check (linearizability checking, counterexample shrinking)
   and the chaos campaigns built on top of them. *)

module L = Check.Linearize
module S = Check.Shrink

let ddmin ~test xs = fst (S.ddmin_count ~test xs)
let minimize ~test xs = fst (S.minimize_count ~test xs)
module C = Msgpass.Chaos

(* Replays a list-form plan: compiling checks every operand. *)
let run_plan config plan =
  C.run_compiled config (Msgpass.Faults.compile ~n:config.C.n plan)

let ev ?(proc = 0) ?(reg = 0) op inv res = { L.proc; reg; op; inv; res }
let w ?proc ?reg v inv res = ev ?proc ?reg (L.Write v) inv (Some res)
let r ?proc ?reg v inv res = ev ?proc ?reg (L.Read v) inv (Some res)

let is_lin = function L.Linearizable _ -> true | L.Nonlinearizable _ -> false

let check evs =
  L.check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal evs

(* A witness must be a legal sequential history: every read returns the
   value of the latest preceding write (or the register's initial value). *)
let legal_witness witness =
  let value = Hashtbl.create 4 in
  let current reg = Option.value (Hashtbl.find_opt value reg) ~default:0 in
  List.for_all
    (fun (e : int L.event) ->
      match e.L.op with
      | L.Write v ->
          Hashtbl.replace value e.reg v;
          true
      | L.Read v -> v = current e.reg)
    witness

let test_linearize_basic () =
  Alcotest.(check bool) "empty history" true (is_lin (check []));
  Alcotest.(check bool)
    "sequential write then read" true
    (is_lin (check [ w 1 0 1; r 1 2 3 ]));
  Alcotest.(check bool)
    "read of the initial value" true
    (is_lin (check [ r 0 0 1 ]));
  Alcotest.(check bool)
    "read overlapping a write may return either value (new)" true
    (is_lin (check [ w 1 0 5; r ~proc:1 1 2 4 ]));
  Alcotest.(check bool)
    "read overlapping a write may return either value (old)" true
    (is_lin (check [ w 1 0 5; r ~proc:1 0 2 4 ]))

let test_linearize_stale_read () =
  (* Write completes at 2; a read invoked at 3 returns the initial value:
     the E13 shape. *)
  let verdict = check [ w 1 0 2; r ~proc:1 0 3 4 ] in
  (match verdict with
  | L.Nonlinearizable { reg; reason } ->
      Alcotest.(check int) "register cited" 0 reg;
      Alcotest.(check bool) "reason mentions the stuck read" true
        (String.length reason > 0)
  | L.Linearizable _ -> Alcotest.fail "stale read accepted");
  (* New/old inversion across two readers: p1 reads 1, then p2's later read
     returns 0 even though the write never completed — still illegal, the
     pending write was exposed by p1's read. *)
  let inversion =
    [ ev (L.Write 1) 0 None; r ~proc:1 1 1 2; r ~proc:2 0 3 4 ]
  in
  Alcotest.(check bool) "new/old inversion" false (is_lin (check inversion))

let test_linearize_pending () =
  (* A pending write may or may not have taken effect: both a read of its
     value and a read of the old value are fine. *)
  Alcotest.(check bool)
    "pending write visible" true
    (is_lin (check [ ev (L.Write 7) 0 None; r ~proc:1 7 1 2 ]));
  Alcotest.(check bool)
    "pending write invisible" true
    (is_lin (check [ ev (L.Write 7) 0 None; r ~proc:1 0 1 2 ]));
  (* Pending reads promise nothing. *)
  Alcotest.(check bool)
    "pending read dropped" true
    (is_lin (check [ w 1 0 1; ev ~proc:1 (L.Read 99) 2 None ]))

let test_linearize_per_register () =
  (* Registers are independent: a violation on register 3 is reported as
     such even when register 0's history is fine. *)
  let evs =
    [ w 1 0 1; r 1 2 3; w ~reg:3 5 0 2; r ~proc:1 ~reg:3 0 3 4 ]
  in
  match check evs with
  | L.Nonlinearizable { reg; _ } ->
      Alcotest.(check int) "violating register" 3 reg
  | L.Linearizable _ -> Alcotest.fail "cross-register violation missed"

let test_linearize_witness_legal () =
  (* The returned witness order is itself a legal sequential history. *)
  let evs =
    [
      w 1 0 4;
      w ~proc:0 2 5 9;
      r ~proc:1 1 2 6;
      r ~proc:1 2 7 10;
      r ~proc:2 0 0 1;
      r ~proc:2 2 8 11;
    ]
  in
  match check evs with
  | L.Linearizable witness ->
      Alcotest.(check int) "witness covers completed ops" (List.length evs)
        (List.length witness);
      Alcotest.(check bool) "witness is sequentially legal" true
        (legal_witness witness)
  | L.Nonlinearizable _ -> Alcotest.fail "linearizable history rejected"

(* Differential: the greedy-read checker agrees with plain Wing–Gong
   backtracking on small random histories. *)
let gen_history_over ~regs ~size =
  let open QCheck.Gen in
  let gen_event =
    int_range 0 2 >>= fun proc ->
    int_range 0 (regs - 1) >>= fun reg ->
    int_range 0 2 >>= fun v ->
    bool >>= fun is_write ->
    int_range 0 12 >>= fun inv ->
    int_range 1 5 >>= fun len ->
    int_range 0 9 >>= fun pending_die ->
    let res = if pending_die = 0 then None else Some (inv + len) in
    let op = if is_write then L.Write v else L.Read v in
    return { L.proc; reg; op; inv; res }
  in
  list_size (int_bound size) gen_event

let gen_history = gen_history_over ~regs:2 ~size:6

let prop_check_vs_naive =
  QCheck.Test.make ~name:"greedy checker agrees with naive Wing-Gong"
    ~count:500
    (QCheck.make gen_history)
    (fun evs ->
      is_lin (check evs)
      = Oracle.Wing_gong.check ~init:(fun _ -> 0) ~equal:Int.equal evs)

(* Differential against the checker's previous form ([Oracle.Linref]):
   the same verdict, the same witness order and the same reason text, on
   random histories over one to four registers and recorded chaos
   histories, each as drawn and rearranged into response order with
   pending events last (the order chaos runs record, whose index needs
   no sort). *)
let gen_chaos_history =
  QCheck.Gen.(
    map2
      (fun seed config -> (C.run_random ~seed config).C.history)
      (int_range 0 100_000)
      (oneofl [ C.sound (); C.frontier (); C.churn (); C.churn_frontier () ]))

let in_res_order evs =
  let key (e : int L.event) = Option.value e.L.res ~default:max_int in
  List.stable_sort (fun a b -> Int.compare (key a) (key b)) evs

let same_as_linref evs =
  check evs
  = Oracle.Linref.check ~pp:Format.pp_print_int ~init:(fun _ -> 0)
      ~equal:Int.equal evs

let prop_check_vs_linref =
  QCheck.Test.make ~name:"checker = its previous form, witness and reason"
    ~count:2000
    (QCheck.make
       (QCheck.Gen.oneof
          [
            gen_history;
            gen_history_over ~regs:1 ~size:12;
            gen_history_over ~regs:4 ~size:12;
            gen_chaos_history;
          ]))
    (fun evs -> same_as_linref evs && same_as_linref (in_res_order evs))

(* Differential at scale: the iterative fast path must also agree with the
   exhaustive oracle on real recorded histories — sound runs with crash
   injections, frontier runs (many nonlinearizable), and churn runs whose
   departures and joiner scripts leave operations pending. These exercise
   the flat-array encoding, the res-sorted minimality index and the trail
   undo on exactly the event shapes chaos campaigns produce. *)
let prop_fast_vs_naive_chaos =
  QCheck.Test.make
    ~name:"fast checker agrees with naive oracle on chaos histories"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      List.for_all
        (fun config ->
          let o = C.run_random ~seed config in
          is_lin o.C.verdict
          = Oracle.Wing_gong.check ~init:(fun _ -> 0) ~equal:Int.equal
              o.C.history)
        [ C.sound (); C.frontier (); C.churn (); C.churn_frontier () ])

let test_ddmin () =
  let contains x xs = Array.mem x xs in
  Alcotest.(check (array int))
    "single culprit" [| 7 |]
    (ddmin ~test:(contains 7) [| 1; 2; 3; 7; 4; 5; 6 |]);
  Alcotest.(check (array int))
    "two culprits, order preserved" [| 3; 5 |]
    (ddmin ~test:(fun xs -> contains 3 xs && contains 5 xs)
       [| 9; 3; 1; 4; 5; 2 |]);
  Alcotest.(check (array int))
    "non-failing input unchanged" [| 1; 2 |]
    (ddmin ~test:(fun _ -> false) [| 1; 2 |]);
  let _, tests = S.ddmin_count ~test:(contains 7) [| 1; 2; 3; 7 |] in
  Alcotest.(check bool) "test invocations counted" true (tests > 1)

let test_minimize_pairs () =
  (* A failure only the whole list or a non-chunk-aligned pair removal can
     exhibit: ddmin alone is stuck at the full list, pair elimination finds
     the core. *)
  let test xs = xs = [| 1; 2; 3; 4 |] || xs = [| 2; 3 |] in
  Alcotest.(check (array int))
    "ddmin alone is stuck" [| 1; 2; 3; 4 |]
    (ddmin ~test [| 1; 2; 3; 4 |]);
  Alcotest.(check (array int))
    "pair elimination finds the core" [| 2; 3 |]
    (minimize ~test [| 1; 2; 3; 4 |]);
  let shrunk, tests = S.minimize_count ~test [| 1; 2; 3; 4 |] in
  Alcotest.(check (array int)) "count variant agrees" [| 2; 3 |] shrunk;
  Alcotest.(check bool) "replay count positive" true (tests > 0)

let test_shrink_edge_cases () =
  (* Empty plan: nothing to remove, whatever [test] says. *)
  Alcotest.(check (array int))
    "empty plan, failing" [||]
    (ddmin ~test:(fun _ -> true) [||]);
  Alcotest.(check (array int))
    "empty plan, passing" [||]
    (ddmin ~test:(fun _ -> false) [||]);
  (* Singleton: 1-minimal by construction when it still fails. *)
  Alcotest.(check (array int))
    "failing singleton kept" [| 42 |]
    (ddmin ~test:(fun xs -> xs <> [||]) [| 42 |]);
  (* Already minimal: every element is load-bearing, nothing is dropped
     and order is preserved. *)
  let all_present xs = List.for_all (fun x -> Array.mem x xs) [ 1; 2; 3 ] in
  Alcotest.(check (array int))
    "already-minimal plan unchanged" [| 1; 2; 3 |]
    (ddmin ~test:all_present [| 1; 2; 3 |]);
  Alcotest.(check (array int))
    "minimize agrees on minimal plans" [| 1; 2; 3 |]
    (minimize ~test:all_present [| 1; 2; 3 |])

let test_shrink_non_monotone_terminates () =
  (* An odd-length predicate is about as hostile as it gets: removing one
     element flips the verdict, removing two restores it. ddmin makes no
     monotonicity assumption — it must still terminate, return a
     subsequence, and keep the failure. *)
  let odd xs = Array.length xs mod 2 = 1 in
  let input = [| 1; 2; 3; 4; 5; 6; 7 |] in
  let shrunk, tests = S.minimize_count ~test:odd input in
  Alcotest.(check bool) "result still fails" true (odd shrunk);
  Alcotest.(check bool) "result is a subsequence" true
    (Array.for_all (fun x -> Array.mem x input) shrunk);
  Alcotest.(check bool) "bounded work" true (tests < 1000);
  (* Flapping predicate keyed on content, not length. *)
  let spiky xs = Array.mem 3 xs && not (Array.mem 5 xs) in
  let shrunk2 = ddmin ~test:spiky [| 1; 2; 3; 4; 5; 6 |] in
  Alcotest.(check bool)
    "ddmin on non-monotone input returns input when it passes" true
    (spiky shrunk2 || shrunk2 = [| 1; 2; 3; 4; 5; 6 |])

(* The array shrinker against the list reference it replaced: for the
   same deterministic predicate both must try the same candidates in the
   same order, so they return the same subsequence after the same number
   of tests. The predicates: the input contains a core of its elements
   (monotone), the core is present and an even number of elements is
   gone (removable only in pairs), and the parity of the sum (neither). *)
let prop_shrink_vs_list_oracle =
  QCheck.Test.make ~name:"array ddmin = list ddmin oracle" ~count:300
    QCheck.(
      triple (list_of_size Gen.(0 -- 40) small_nat) (int_bound 2) small_nat)
    (fun (input, kind, salt) ->
      let core =
        List.filteri (fun i _ -> Hashtbl.hash (salt, i) mod 5 = 0) input
      in
      let len0 = List.length input in
      let p xs =
        let has_core = List.for_all (fun v -> List.mem v xs) core in
        match kind with
        | 0 -> has_core
        | 1 -> has_core && (len0 - List.length xs) mod 2 = 0
        | _ -> (List.fold_left ( + ) salt xs) mod 2 = 1
      in
      let logged () =
        let log = ref [] in
        ( log,
          fun xs ->
            log := xs :: !log;
            p xs )
      in
      let same shrink reference =
        let log_a, test_a = logged () and log_l, test_l = logged () in
        let got, k =
          shrink ~test:(fun a -> test_a (Array.to_list a)) (Array.of_list input)
        in
        let want, k' = reference ~test:test_l input in
        Array.to_list got = want && k = k' && !log_a = !log_l
      in
      same S.ddmin_count Oracle.Ddmin.ddmin_count
      && same S.minimize_count Oracle.Ddmin.minimize_count)

(* Sound quorum (n - t, t < n/2): every seeded chaos run — crashes, drops,
   duplication, reordering, delay bursts — must record a linearizable
   history. *)
let prop_sound_chaos_linearizable =
  QCheck.Test.make ~name:"sound-quorum chaos runs are linearizable" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed -> not (C.failed (C.run_random ~seed (C.sound ()))))

(* The published frontier counterexample: seed 127 at the t = n/2 frontier
   (disjoint quorums) yields a nonlinearizable history; the shrinker reduces
   its fault plan to at most 20 delivery events; replaying the shrunk plan
   deterministically re-triggers the verdict. *)
let test_frontier_seed_127 () =
  let config = C.frontier () in
  let o = C.run_random ~seed:127 config in
  Alcotest.(check bool) "seed 127 violates atomicity" true (C.failed o);
  let shrunk, replays = C.shrink config (Msgpass.Faults.decompile o.C.plan) in
  let deliveries = Msgpass.Faults.deliveries shrunk in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 20 deliveries (got %d)" deliveries)
    true (deliveries <= 20);
  (* The published witness: every chaos surface prints these figures. *)
  Alcotest.(check (triple int int int))
    "23 events, 19 deliveries, 1746 replays" (23, 19, 1746)
    (List.length shrunk, deliveries, replays);
  let replayed = run_plan config shrunk in
  (match replayed.C.verdict with
  | L.Nonlinearizable { reg; _ } ->
      Alcotest.(check int) "replay re-triggers on register 0" 0 reg
  | L.Linearizable _ -> Alcotest.fail "shrunk plan no longer fails");
  (* Replay is bit-for-bit: same plan, same history, same verdict. *)
  let again = run_plan config shrunk in
  Alcotest.(check bool) "replay deterministic" true
    (again.C.history = replayed.C.history)

(* [C.shrink] memoizes probes on the compiled plan; the reference replays
   every probe with [run_plan] under the list ddmin. They must agree on
   the witness and on the probe count — on the static fleet and on the
   dynamic one, both pooled. The churn witness must keep an enter or a
   leave: without one, its violation no longer depends on churn. *)
let test_shrink_vs_reference () =
  List.iter
    (fun (name, config, seed, churn) ->
      let o = C.run_random ~seed config in
      let plan = Msgpass.Faults.decompile o.C.plan in
      let got, k = C.shrink config plan in
      let want, k' =
        Oracle.Ddmin.minimize_count
          ~test:(fun p -> C.failed (run_plan config p))
          plan
      in
      Alcotest.(check bool) (name ^ " fails") true (C.failed o);
      Alcotest.(check int) (name ^ ": probes") k' k;
      Alcotest.(check bool) (name ^ ": same witness") true (got = want);
      if churn then
        Alcotest.(check bool) (name ^ ": keeps an enter or a leave") true
          (List.exists
             (function
               | Msgpass.Faults.Enter _ | Msgpass.Faults.Leave _ -> true
               | _ -> false)
             got))
    [
      ("frontier seed 127", C.frontier (), 127, false);
      ("churn-frontier seed 29", C.churn_frontier (), 29, true);
    ]

(* One pool serves both fleets and keys an instance on the fields it
   reads alone, so configs that differ only in how a run is driven share
   one — as the fleet's per-generation [{ chaos with profile; crashes }]
   copies do, and as churn configs differing only in rate or window do.
   Alternating static shapes (scripts, or only the quorum), dynamic ones
   (seed group, slack, width, joiner scripts), a structurally equal fresh
   copy and a different fault profile or churn rate on a shared instance
   must leave every outcome what it is on a fresh domain, whose pool
   holds nothing. *)
let test_pool_alternation () =
  let a = C.sound () and b = C.frontier () in
  let b' = { b with C.crashes = b.C.crashes } in
  let b'' =
    { b with C.profile = { b.C.profile with Msgpass.Faults.drop = 0.2 } }
  in
  let b_sound = { b with C.t = 1; quorum = None } in
  let ch = C.churn () and cf = C.churn_frontier () in
  let ch_s0 = C.churn ~slack:0 () in
  (* Two writes never lap a 2-bit timestamp, so width 2 runs like the
     unbounded register; width 1 wraps on the second write. *)
  let ch_w2 = C.churn ~width_bits:2 () and ch_w1 = C.churn ~width_bits:1 () in
  let ch_seed4 = C.churn ~seed_members:4 () in
  let ch_joiner =
    match ch.C.membership with
    | Some d -> { ch with C.membership = Some { d with C.joiner_reads = 1 } }
    | None -> assert false
  in
  (* Rate 2 with slack 1 keys like [ch]: only the churn roll differs. *)
  let ch_rate = C.churn ~rate:2 ~slack:1 () in
  let fresh f = Domain.join (Domain.spawn f) in
  let jobs =
    List.concat_map
      (fun seed ->
        List.map
          (fun c ->
            let p =
              fresh (fun () -> (C.run_random ~seed:(seed + 1000) c).C.plan)
            in
            ((fun () -> C.run_random ~seed c), fun () -> C.run_compiled c p))
          [
            a; ch; b; cf; a; b'; ch_w2; b''; ch_s0; b_sound; ch_joiner; b; ch;
            ch_w1; ch_rate; b'; cf; ch_seed4; a; ch_w2; b''; ch_joiner; ch_w1;
            b_sound; ch_seed4; ch_s0;
          ])
      (* Seed 5 is one where width 1 wraps into a stale read. *)
      [ 1; 2; 5; 127 ]
  in
  let want = List.map (fun (r, s) -> (fresh r, fresh s)) jobs in
  List.iteri
    (fun i ((r, s), (wr, ws)) ->
      let say what = Printf.sprintf "job %d %s" i what in
      Alcotest.(check bool) (say "run_random") true (r () = wr);
      Alcotest.(check bool) (say "run_compiled") true (s () = ws))
    (List.combine jobs want)

let test_run_plan_reproduces_run_random () =
  let config = C.sound () in
  let o = C.run_random ~seed:3 config in
  let replayed = run_plan config (Msgpass.Faults.decompile o.C.plan) in
  Alcotest.(check bool) "same history under plan replay" true
    (replayed.C.history = o.C.history);
  Alcotest.(check int) "same delivery count" o.C.deliveries
    replayed.C.deliveries

let () =
  Alcotest.run "check"
    [
      ( "linearize",
        [
          Alcotest.test_case "basic histories" `Quick test_linearize_basic;
          Alcotest.test_case "stale reads rejected" `Quick
            test_linearize_stale_read;
          Alcotest.test_case "pending operations" `Quick test_linearize_pending;
          Alcotest.test_case "per-register verdicts" `Quick
            test_linearize_per_register;
          Alcotest.test_case "witness legality" `Quick
            test_linearize_witness_legal;
          QCheck_alcotest.to_alcotest prop_check_vs_naive;
          QCheck_alcotest.to_alcotest prop_fast_vs_naive_chaos;
          QCheck_alcotest.to_alcotest prop_check_vs_linref;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin" `Quick test_ddmin;
          Alcotest.test_case "pair elimination" `Quick test_minimize_pairs;
          Alcotest.test_case "edge cases" `Quick test_shrink_edge_cases;
          Alcotest.test_case "non-monotone predicates" `Quick
            test_shrink_non_monotone_terminates;
          QCheck_alcotest.to_alcotest prop_shrink_vs_list_oracle;
        ] );
      ( "chaos",
        [
          QCheck_alcotest.to_alcotest prop_sound_chaos_linearizable;
          Alcotest.test_case "frontier seed 127 finds, shrinks, replays"
            `Quick test_frontier_seed_127;
          Alcotest.test_case "plan replay reproduces random run" `Quick
            test_run_plan_reproduces_run_random;
          Alcotest.test_case "memoized shrink = unmemoized reference" `Quick
            test_shrink_vs_reference;
          Alcotest.test_case "pool alternation = fresh runs" `Quick
            test_pool_alternation;
        ] );
    ]
