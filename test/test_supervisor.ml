(* Supervisor: crash isolation, wall-clock timeouts, retry-once for
   seeded experiments, and the aggregate exit code. The experiments here
   are synthetic [Registry.t] records — the point is the harness around
   them, not the science inside. *)

module S = Experiments.Supervisor
module R = Experiments.Registry

let entry ?(seeded = false) id run =
  { R.id; slug = "test-" ^ String.lowercase_ascii id; paper = "synthetic";
    seeded; run }

let passing id =
  entry id (fun _ctx ppf -> Format.fprintf ppf "%s ran fine@." id)

let crashing id =
  entry id (fun _ctx _ppf -> failwith (id ^ " exploded"))

(* An infinite loop that allocates, so the SIGALRM handler's exception
   can actually be delivered (OCaml checks for signals at allocation
   points). *)
let hanging id =
  entry id (fun _ctx _ppf ->
      let rec spin xs = spin (ignore (Sys.opaque_identity (List.rev xs)); 0 :: xs) in
      ignore (spin []))

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* A crashed or timed-out experiment dumps [flight-<reason>.jsonl] into
   the current directory, which every test executable shares: run such a
   case in a fresh directory, check that each expected dump landed there,
   and remove the directory. *)
let dumps_into_fresh_dir dumps f () =
  let dir = Filename.temp_dir "supervisor" "" and cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.readdir dir
      |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
      Sys.rmdir dir)
    (fun () ->
      f ();
      List.iter
        (fun reason ->
          let file = Printf.sprintf "flight-%s.jsonl" reason in
          Alcotest.(check bool) (file ^ " in the case's directory") true
            (Sys.file_exists file))
        dumps)

let test_crash_is_isolated () =
  let results =
    S.run_all ~ppf:null_ppf
      ~experiments:[ passing "T1"; crashing "T2"; passing "T3" ]
      ()
  in
  Alcotest.(check int) "every experiment still ran" 3 (List.length results);
  let r2 = List.nth results 1 in
  (match r2.S.status with
  | S.Crashed { exn_text; backtrace = _ } ->
      Alcotest.(check bool)
        "exception text captured" true
        (let re = "T2 exploded" in
         let len = String.length re in
         let n = String.length exn_text in
         let rec scan i =
           i + len <= n && (String.sub exn_text i len = re || scan (i + 1))
         in
         scan 0)
  | s -> Alcotest.failf "expected Crashed, got %a" S.pp_status s);
  Alcotest.(check bool) "crash fails the run" false (S.status_ok r2.S.status);
  let r3 = List.nth results 2 in
  Alcotest.(check bool) "later experiment unaffected" true
    (S.status_ok r3.S.status);
  Alcotest.(check bool) "later output intact" true
    (r3.S.output <> "");
  Alcotest.(check int) "aggregate exit code is 1" 1 (S.exit_code results)

let test_hang_times_out () =
  let r = S.run_one ~deadline:0.2 (hanging "T-HANG") in
  (match r.S.status with
  | S.Timed_out d ->
      Alcotest.(check bool) "reported deadline" true (d = 0.2)
  | s -> Alcotest.failf "expected Timed_out, got %a" S.pp_status s);
  Alcotest.(check bool) "timeout fails the run" false
    (S.status_ok r.S.status);
  Alcotest.(check int) "timeouts are not retried" 1 r.S.attempts;
  (* The alarm must not leak into the next (well-behaved) run. *)
  let after = S.run_one ~deadline:5.0 (passing "T-AFTER") in
  Alcotest.(check bool) "no leaked alarm" true (S.status_ok after.S.status)

let test_seeded_crash_retried_once () =
  let calls = ref 0 in
  let flaky =
    entry ~seeded:true "T-FLAKY" (fun _ctx ppf ->
        incr calls;
        if !calls = 1 then failwith "unlucky seed"
        else Format.fprintf ppf "second attempt ok@.")
  in
  let r = S.run_one flaky in
  Alcotest.(check int) "ran twice" 2 !calls;
  Alcotest.(check int) "attempts recorded" 2 r.S.attempts;
  Alcotest.(check bool) "flake recovers" true (S.status_ok r.S.status)

let test_unseeded_crash_not_retried () =
  let calls = ref 0 in
  let brittle =
    entry "T-BRITTLE" (fun _ctx _ppf ->
        incr calls;
        failwith "deterministic crash")
  in
  let r = S.run_one brittle in
  Alcotest.(check int) "ran once" 1 !calls;
  Alcotest.(check int) "single attempt" 1 r.S.attempts;
  Alcotest.(check bool) "still a failure" false (S.status_ok r.S.status)

let test_seeded_double_crash_reports_first () =
  let doomed =
    entry ~seeded:true "T-DOOMED" (fun _ctx _ppf -> failwith "always")
  in
  let r = S.run_one doomed in
  Alcotest.(check int) "both attempts spent" 2 r.S.attempts;
  Alcotest.(check bool) "failure survives retry" false
    (S.status_ok r.S.status)

let test_degraded_is_still_ok () =
  let degrading =
    entry "T-DEGRADE" (fun ctx ppf ->
        ctx.Experiments.Ctx.degraded "fell back to sampling";
        Format.fprintf ppf "partial coverage@.")
  in
  let r = S.run_one degrading in
  (match r.S.status with
  | S.Degraded [ note ] ->
      Alcotest.(check string) "note captured" "fell back to sampling" note
  | s -> Alcotest.failf "expected Degraded, got %a" S.pp_status s);
  Alcotest.(check bool) "degraded still passes" true (S.status_ok r.S.status);
  Alcotest.(check int) "all-pass exit code" 0
    (S.exit_code [ r; S.run_one (passing "T-OK") ])

let test_jobs_threads_through_context () =
  let seen = ref 0 in
  let probe =
    entry "T-JOBS" (fun ctx ppf ->
        seen := ctx.Experiments.Ctx.jobs;
        Format.fprintf ppf "pool width %d@." ctx.Experiments.Ctx.jobs)
  in
  let r = S.run_one ~jobs:3 probe in
  Alcotest.(check bool) "probe passed" true (S.status_ok r.S.status);
  Alcotest.(check int) "experiment saw the pool width" 3 !seen;
  ignore (S.run_one probe);
  Alcotest.(check int) "default is sequential" 1 !seen

let test_summary_names_failures () =
  let results =
    S.run_all ~ppf:null_ppf
      ~experiments:[ passing "T1"; crashing "T2" ]
      ()
  in
  let text = Format.asprintf "%a" S.summary results in
  let contains hay needle =
    let len = String.length needle and n = String.length hay in
    let rec scan i =
      i + len <= n && (String.sub hay i len = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "summary lists the failed id" true
    (contains text "T2");
  Alcotest.(check bool) "summary says FAILED" true (contains text "FAILED")

let () =
  Alcotest.run "supervisor"
    [
      ( "supervisor",
        [
          Alcotest.test_case "crash isolation" `Quick
            (dumps_into_fresh_dir [ "exception" ] test_crash_is_isolated);
          Alcotest.test_case "hang times out" `Quick
            (dumps_into_fresh_dir [ "watchdog" ] test_hang_times_out);
          Alcotest.test_case "seeded crash retried" `Quick
            test_seeded_crash_retried_once;
          Alcotest.test_case "unseeded crash not retried" `Quick
            (dumps_into_fresh_dir [ "exception" ]
               test_unseeded_crash_not_retried);
          Alcotest.test_case "double crash reports failure" `Quick
            (dumps_into_fresh_dir [ "exception" ]
               test_seeded_double_crash_reports_first);
          Alcotest.test_case "degraded still passes" `Quick
            test_degraded_is_still_ok;
          Alcotest.test_case "jobs threads through the context" `Quick
            test_jobs_threads_through_context;
          Alcotest.test_case "summary names failures" `Quick
            (dumps_into_fresh_dir [ "exception" ] test_summary_names_failures);
        ] );
    ]
