(* Crash-isolated experiment runs: every registry entry executes under
   exception capture and a wall-clock alarm, so one hung or crashing
   experiment cannot take down `boundedreg run all`. *)

type status =
  | Passed
  | Degraded of string list
  | Timed_out of float
  | Crashed of { exn_text : string; backtrace : string }

type result = {
  experiment : Registry.t;
  status : status;
  seconds : float;
  attempts : int;
  output : string;
}

exception Timeout

let pp_status ppf = function
  | Passed -> Format.pp_print_string ppf "pass"
  | Degraded notes ->
      Format.fprintf ppf "pass (degraded x%d)" (List.length notes)
  | Timed_out s -> Format.fprintf ppf "TIMEOUT after %.1fs" s
  | Crashed { exn_text; _ } -> Format.fprintf ppf "CRASH: %s" exn_text

let status_ok = function
  | Passed | Degraded _ -> true
  | Timed_out _ | Crashed _ -> false

(* Run [f ()] with a SIGALRM firing after [deadline] seconds. OCaml
   delivers signals at allocation points, so the handler's exception
   interrupts pure-OCaml loops too (anything that allocates — which the
   explorer does constantly). The previous handler and timer are restored
   whatever happens: the supervisor itself runs many experiments in
   sequence and must not leak an armed timer into the next one. *)
let with_alarm deadline f =
  match deadline with
  | None -> f ()
  | Some deadline ->
      let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timeout)) in
      let set span =
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_value = span; it_interval = 0. })
      in
      Fun.protect
        ~finally:(fun () ->
          set 0.;
          Sys.set_signal Sys.sigalrm previous)
        (fun () ->
          set deadline;
          f ())

(* One attempt: output goes to a buffer so a crash mid-table still leaves
   the partial output attached to the result instead of interleaved
   garbage on the terminal. *)
let attempt ?deadline ~budget ~jobs (e : Registry.t) =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let notes = ref [] in
  let ctx =
    Ctx.make ~budget ~degraded:(fun n -> notes := n :: !notes) ~jobs ()
  in
  let started = Unix.gettimeofday () in
  let status =
    match with_alarm deadline (fun () -> e.run ctx ppf) with
    | () -> if !notes = [] then Passed else Degraded (List.rev !notes)
    | exception Timeout ->
        Timed_out (Option.value deadline ~default:0.)
    | exception exn ->
        let backtrace = Printexc.get_backtrace () in
        Crashed { exn_text = Printexc.to_string exn; backtrace }
  in
  Format.pp_print_flush ppf ();
  (status, Unix.gettimeofday () -. started, Buffer.contents buf)

let status_args status =
  let tag, detail =
    match status with
    | Passed -> ("passed", Obs.Json.Null)
    | Degraded notes ->
        ("degraded", Obs.Json.List (List.map (fun n -> Obs.Json.Str n) notes))
    | Timed_out s -> ("timed_out", Obs.Json.Float s)
    | Crashed { exn_text; _ } -> ("crashed", Obs.Json.Str exn_text)
  in
  [ ("status", Obs.Json.Str tag); ("detail", detail) ]

let run_one ?deadline ?(budget = Sched.Budget.unlimited) ?(jobs = 1)
    (e : Registry.t) =
  Printexc.record_backtrace true;
  Obs.Span.begin_ ~cat:"experiment"
    ~args:
      [
        ("id", Obs.Json.Str e.id);
        ("slug", Obs.Json.Str e.slug);
        ("seeded", Obs.Json.Bool e.seeded);
      ]
    e.id;
  let status, seconds, output = attempt ?deadline ~budget ~jobs e in
  (* Seeded experiments are retried once: a crash there can be an
     artefact of one unlucky seed interacting with a budget, and the
     second attempt makes the flake visible as [attempts = 2] instead of
     failing the whole run. Timeouts are not retried — the second attempt
     would spend the same wall clock to learn the same thing. *)
  let result =
    match status with
    | Crashed _ when e.seeded ->
        Obs.Span.instant ~cat:"experiment"
          ~args:[ ("id", Obs.Json.Str e.id) ]
          "experiment.retry";
        let status2, seconds2, output2 = attempt ?deadline ~budget ~jobs e in
        let status2, output2 =
          match status2 with
          | Crashed _ -> (status, output)  (* report the first failure *)
          | _ -> (status2, output2)
        in
        {
          experiment = e;
          status = status2;
          seconds = seconds +. seconds2;
          attempts = 2;
          output = output2;
        }
    | _ -> { experiment = e; status; seconds; attempts = 1; output }
  in
  Obs.Span.end_ ~cat:"experiment"
    ~args:
      (status_args result.status
      @ [
          ("attempts", Obs.Json.Int result.attempts);
          ("seconds", Obs.Json.Float result.seconds);
        ])
    e.id;
  (* Post-mortem for a tripped watchdog or a crash that survived the
     retry: the flight rings hold the last events of the dying run —
     its campaign/exploration boundaries and verdict instants — without
     the user having traced. *)
  (let dump reason =
     match Obs.Recorder.dump ~reason () with
     | Some f -> Format.eprintf "flight recorder: wrote %s@." f
     | None -> ()
   in
   match result.status with
   | Timed_out _ -> dump "watchdog"
   | Crashed _ -> dump "exception"
   | Passed | Degraded _ -> ());
  result

let run_all ?(budget = Sched.Budget.unlimited) ?jobs
    ?(ppf = Format.std_formatter) ?(experiments = Registry.all) () =
  (* The soft (budget) deadline fires first so checks can degrade
     gracefully; the SIGALRM backstop gets 1.5x + 1s of slack and only
     kills experiments that ignored their budget. *)
  let deadline =
    Option.map (fun d -> (d *. 1.5) +. 1.) budget.Sched.Budget.deadline
  in
  List.map
    (fun (e : Registry.t) ->
      Format.fprintf ppf "=== %s  %s ===@.reproduces: %s@.@." e.id e.slug
        e.paper;
      let r = run_one ?deadline ~budget ?jobs e in
      Format.fprintf ppf "%s@." r.output;
      (match r.status with
      | Passed | Degraded _ -> ()
      | Timed_out s ->
          Format.fprintf ppf "*** %s: timed out after %.1fs@.@." e.id s
      | Crashed { exn_text; backtrace } ->
          Format.fprintf ppf "*** %s: uncaught exception %s@.%s@." e.id
            exn_text backtrace);
      r)
    experiments

let summary ppf results =
  let rows =
    List.map
      (fun r ->
        [
          r.experiment.Registry.id;
          r.experiment.Registry.slug;
          Format.asprintf "%a" pp_status r.status;
          Printf.sprintf "%.1fs" r.seconds;
          (if r.attempts > 1 then string_of_int r.attempts else "1");
        ])
      results
  in
  Table.print ppf ~title:"Supervisor summary"
    ~headers:[ "id"; "experiment"; "status"; "time"; "attempts" ]
    rows;
  List.iter
    (fun r ->
      match r.status with
      | Degraded notes ->
          List.iter
            (fun n ->
              Format.fprintf ppf "  %s degraded: %s@."
                r.experiment.Registry.id n)
            notes
      | _ -> ())
    results;
  let failed = List.filter (fun r -> not (status_ok r.status)) results in
  if failed = [] then
    Format.fprintf ppf "all %d experiment(s) completed@."
      (List.length results)
  else
    Format.fprintf ppf "%d of %d experiment(s) FAILED: %s@."
      (List.length failed) (List.length results)
      (String.concat ", "
         (List.map (fun r -> r.experiment.Registry.id) failed))

let exit_code results =
  if List.for_all (fun r -> status_ok r.status) results then 0 else 1
