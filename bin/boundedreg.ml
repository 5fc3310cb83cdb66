(* Command-line entry point: run any experiment of the reproduction suite. *)

open Cmdliner

(* Print a message on stderr and exit 1. *)
let fail fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "%s@." m;
      exit 1)
    fmt

(* Exit 1 on a [Sys_error] [e] reading [what] from [file], naming the
   file: messages from reading (e.g. ["Is a directory"]) do not, those
   from opening already do. *)
let cannot_read what file e =
  fail "cannot read %s: %s" what
    (if String.starts_with ~prefix:file e then e else file ^ ": " ^ e)

(* Write [contents] to [file] through [file.tmp] and a rename, so a kill
   leaves the old file or the new one, never a truncated one. A path that
   cannot be written exits 1 naming it. *)
let write_file_atomic file contents =
  let tmp = file ^ ".tmp" in
  try
    Out_channel.with_open_text tmp (fun oc -> output_string oc contents);
    Sys.rename tmp file
  with Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    fail "cannot write %s: %s" file e

(* Fold a --trace file (jsonl or catapult) into a health report with
   [fold] ([Obs.Report.of_trace] or [validate]) as it is read; unreadable
   or malformed input exits 1 with a message naming the file. *)
let read_report fold file =
  match In_channel.with_open_text file fold with
  | Ok report -> report
  | Error m -> fail "invalid trace %s: %s" file m
  | exception Sys_error e -> cannot_read "trace" file e

(* ----- telemetry plumbing shared by the run/explore/chaos commands ----- *)

type telemetry = {
  trace : string option;
  trace_format : [ `Jsonl | `Catapult ];
  metrics : string option;
  wall : bool;
}

let telemetry_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured execution trace (logical-clock spans and \
             instant events from every instrumented subsystem) to $(docv).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("catapult", `Catapult) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Trace encoding: $(b,jsonl) (one JSON event per line) or \
             $(b,catapult) (a Chrome trace_event array, viewable in \
             about:tracing or Perfetto).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "After the run, write the JSON metrics snapshot (counters, \
             gauges, histograms from the process-wide registry) to $(docv); \
             bare $(b,--metrics) or '-' prints it to stdout.")
  in
  let wall_arg =
    Arg.(
      value & flag
      & info [ "wall" ]
          ~doc:
            "Stamp every trace event with a wall-clock $(b,wall_s) argument \
             and add rate/ETA fields to the periodic health instants. Off by \
             default: wall time makes traces non-reproducible byte-for-byte.")
  in
  Term.(
    const (fun trace trace_format metrics wall ->
        { trace; trace_format; metrics; wall })
    $ trace_arg $ format_arg $ metrics_arg $ wall_arg)

(* Resolved run parameters as the trace's first event, so a trace file
   is self-describing for replay: which seed, how wide a pool, which
   compiler. (Witness files already carry this; traces didn't.) *)
let emit_meta ?seed ~jobs () =
  Obs.Span.instant ~cat:"meta"
    ~args:
      ((match seed with
       | Some s -> [ ("seed", Obs.Json.Int s) ]
       | None -> [])
      @ [
          ("jobs", Obs.Json.Int jobs);
          ("ocaml_version", Obs.Json.Str Sys.ocaml_version);
        ])
    "meta"

(* Installs the requested sink around [f]. Subcommands call [exit] on
   their failure paths, which does not unwind the stack — so teardown is
   both a [Fun.protect] finalizer and an idempotent [at_exit] hook, and a
   catapult trace gets its closing bracket whatever the exit path. *)
let with_telemetry tel f =
  Obs.Span.reset ();
  Obs.Span.set_wall_clock (if tel.wall then Some Unix.gettimeofday else None);
  (* Per-operation tallies (scheduler steps, register widths) only count
     while someone is going to read them. *)
  if tel.metrics <> None then Obs.Metrics.hot := true;
  let teardown =
    let done_ = ref false in
    let close_trace =
      match tel.trace with
      | None -> ignore
      | Some file ->
          let oc =
            try open_out file
            with Sys_error e -> fail "cannot write trace: %s" e
          in
          Obs.Sink.set
            (match tel.trace_format with
            | `Jsonl -> Obs.Sink.jsonl (output_string oc)
            | `Catapult -> Obs.Sink.catapult (output_string oc));
          fun () ->
            Obs.Sink.clear ();
            close_out_noerr oc
    in
    fun () ->
      if not !done_ then begin
        done_ := true;
        close_trace ();
        match tel.metrics with
        | None -> ()
        | Some "-" -> print_endline (Obs.Metrics.snapshot_string ())
        | Some file ->
            write_file_atomic file (Obs.Metrics.snapshot_string () ^ "\n")
      end
  in
  at_exit teardown;
  (* A killed or crashing run still leaves its black box. SIGINT/SIGTERM
     dump the flight rings and exit through [at_exit], so the trace gets
     its closing bracket too; an escaping exception dumps after teardown
     and re-raises. *)
  let flight reason =
    match Obs.Recorder.dump ~reason () with
    | Some file -> Printf.eprintf "flight recorder: wrote %s\n%!" file
    | None -> ()
  in
  let handler name code =
    Sys.Signal_handle
      (fun _ ->
        flight name;
        exit code)
  in
  (try Sys.set_signal Sys.sigint (handler "sigint" 130)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (handler "sigterm" 143)
   with Invalid_argument _ | Sys_error _ -> ());
  match Fun.protect ~finally:teardown f with
  | v -> v
  | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      flight "exception";
      Printexc.raise_with_backtrace exn bt

(* Shared by run/chaos/explore: the width of the domain pool their
   parallelizable work fans out over. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Fan parallelizable work (frontier exploration, chaos runs, \
           frontier sampling) over $(docv) domains. The default 1 is the \
           original sequential path; for fixed seeds, verdicts and \
           terminal-state summaries are identical for any value.")

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun e ->
        Format.printf "%-4s %-28s %s@." e.Experiments.Registry.id
          e.Experiments.Registry.slug e.Experiments.Registry.paper)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc =
    "Run experiments by id or slug ('all' runs every one). Each experiment \
     runs supervised: exceptions are caught with their backtrace, a \
     deadline aborts hung runs, and a summary table plus a non-zero exit \
     code report any failure — one bad experiment never loses the rest."
  in
  let keys =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-experiment wall-clock deadline. Exploration-backed checks \
             degrade to sampled coverage at the deadline; an experiment \
             still running at 1.5x the deadline (+1s) is killed and \
             reported as timed out.")
  in
  let max_states_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:
            "Per-experiment cap on explored interleaving-tree nodes; \
             exploration-backed checks degrade to sampled coverage at the \
             cap.")
  in
  let run keys deadline max_states jobs tel =
    with_telemetry tel @@ fun () ->
    emit_meta ~jobs ();
    let find k =
      match Experiments.Registry.find k with
      | Some e -> e
      | None -> fail "unknown experiment %S (try 'boundedreg list')" k
    in
    let experiments =
      if List.exists (fun k -> String.lowercase_ascii k = "all") keys then
        Experiments.Registry.all
      else List.map find keys
    in
    let budget = Sched.Budget.make ?deadline ?max_nodes:max_states () in
    let results =
      Experiments.Supervisor.run_all ~budget ~jobs ~experiments ()
    in
    Experiments.Supervisor.summary Format.std_formatter results;
    Format.print_flush ();
    exit (Experiments.Supervisor.exit_code results)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ keys $ deadline_arg $ max_states_arg $ jobs_arg
      $ telemetry_term)

(* ----- demo subcommands ----- *)

module Q = Bits.Rational
module H = Tasks.Harness

let seed_arg =
  Cmdliner.Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")

let print_decisions state =
  Array.iteri
    (fun pid d ->
      match d with
      | Some v ->
          Format.printf "process %d: decides %a after %d steps@." pid Q.pp v
            (Sched.Scheduler.steps_of state pid)
      | None -> Format.printf "process %d: no decision@." pid)
    (Sched.Scheduler.decisions state)

let alg1_cmd =
  let doc = "Run Algorithm 1 (2-process eps-agreement, 1-bit registers)." in
  let k_arg = Arg.(value & opt int 4 & info [ "k" ] ~docv:"K") in
  let inputs_arg =
    Arg.(value & opt (pair int int) (0, 1) & info [ "inputs" ] ~docv:"X0,X1")
  in
  let trace_arg = Arg.(value & flag & info [ "trace" ]) in
  let run k (x0, x1) seed trace =
    let algorithm = Core.Alg1_one_bit.algorithm ~k in
    let state =
      Sched.Scheduler.start ~record_trace:trace
        ~memory:(algorithm.H.memory ())
        ~programs:(fun pid ->
          algorithm.H.program ~pid ~input:(if pid = 0 then x0 else x1))
        ()
    in
    Sched.Scheduler.run_random (Bits.Rng.make seed) state;
    if trace then
      Format.printf "%a@."
        (Sched.Trace.pp Format.pp_print_int)
        (Sched.Scheduler.trace state);
    Format.printf "eps = 1/%d@." (Core.Alg1_one_bit.denominator ~k);
    print_decisions state
  in
  Cmd.v (Cmd.info "alg1" ~doc)
    Term.(const run $ k_arg $ inputs_arg $ seed_arg $ trace_arg)

let fast_cmd =
  let doc = "Run the Theorem 8.1 fast agreement (6-bit registers)." in
  let rounds_arg = Arg.(value & opt int 10 & info [ "rounds" ] ~docv:"R") in
  let inputs_arg =
    Arg.(value & opt (pair int int) (0, 1) & info [ "inputs" ] ~docv:"X0,X1")
  in
  let run rounds (x0, x1) seed =
    let algorithm = Core.Fast_agreement.algorithm ~delta:2 ~rounds in
    let state =
      H.run_once algorithm ~inputs:[| x0; x1 |]
        ~schedule:(`Random (Bits.Rng.make seed, []))
        ()
    in
    Format.printf "eps = 1/%d (>= 2^-%d), registers: %d bits@."
      (Core.Fast_agreement.denominator ~delta:2 ~rounds)
      rounds
      (Core.Ring_sim.register_bits ~delta:2);
    print_decisions state
  in
  Cmd.v (Cmd.info "fast" ~doc)
    Term.(const run $ rounds_arg $ inputs_arg $ seed_arg)

let pipeline_cmd =
  let doc =
    "Run the Theorem 1.3 pipeline (eps-agreement over 3(t+1)-bit registers)."
  in
  let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N") in
  let t_arg = Arg.(value & opt int 1 & info [ "t" ] ~docv:"T") in
  let rounds_arg = Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"R") in
  let run n t rounds seed =
    if 2 * t >= n then fail "need t < n/2";
    let value =
      Msgpass.Wire.(list_codec (pair_codec int_codec rational_codec))
    in
    let algorithm =
      Msgpass.Pipeline.algorithm ~n ~t ~value ~input:Msgpass.Wire.int_codec
        ~init:[]
        ~source:(fun ~pid ~input ->
          Core.Baseline_unbounded.protocol ~n ~rounds ~me:pid ~input)
        ~name:"cli-pipeline" ()
    in
    let rng = Bits.Rng.make seed in
    let inputs = Array.init n (fun _ -> Bits.Rng.int rng 2) in
    Format.printf "inputs: %s; registers: %d bits (= 3(t+1))@."
      (String.concat ","
         (Array.to_list (Array.map string_of_int inputs)))
      (Msgpass.Pipeline.register_bits ~t ~chunk:1);
    let state =
      H.run_once algorithm ~inputs
        ~schedule:(`Random (rng, []))
        ~max_steps:400_000_000 ()
    in
    print_decisions state
  in
  Cmd.v (Cmd.info "pipeline" ~doc)
    Term.(const run $ n_arg $ t_arg $ rounds_arg $ seed_arg)

let search_cmd =
  let doc = "Exhaustive consensus-protocol search (Lemma 2.1)." in
  let rounds_arg = Arg.(value & opt int 1 & info [ "rounds" ] ~docv:"R") in
  let run rounds =
    let s = Core.Consensus_search.search ~rounds in
    Format.printf "%d candidates, %d survive 1-resilient consensus checking@."
      s.Core.Consensus_search.total
      (List.length s.Core.Consensus_search.survivors)
  in
  Cmd.v (Cmd.info "search" ~doc) Term.(const run $ rounds_arg)

let labelling_cmd =
  let doc = "Enumerate the labelling protocol's labels and values." in
  let rounds_arg = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R") in
  let run rounds =
    let labels = ref [] in
    Iterated.Iis.enumerate ~n:2 ~budget:(Bits.Width.Bounded 1)
      ~measure:(Bits.Width.uint ~max:1)
      ~programs:(fun pid -> Core.Labelling.protocol ~rounds ~me:pid)
      ~max_rounds:rounds
      (fun o ->
        Array.iter
          (function
            | Some l ->
                if not (List.exists (Core.Labelling.equal l) !labels) then
                  labels := l :: !labels
            | None -> ())
          o.Iterated.Iis.decisions);
    let sorted =
      List.sort
        (fun a b ->
          Q.compare (Core.Labelling.value a) (Core.Labelling.value b))
        !labels
    in
    List.iter
      (fun l ->
        Format.printf "%-20s  f = %a@."
          (Format.asprintf "%a" Core.Labelling.pp l)
          Q.pp (Core.Labelling.value l))
      sorted;
    Format.printf "%d labels (3^%d + 1)@." (List.length sorted) rounds
  in
  Cmd.v (Cmd.info "labelling" ~doc) Term.(const run $ rounds_arg)

(* ----- dynamic-membership flags shared by chaos and fleet ----- *)

type churn_opts = {
  co_churn : bool;
  co_frontier : bool;
  co_seed_members : int option;
  co_rate : int option;
  co_window : int option;
  co_slack : int option;
  co_width_bits : int option;
}

let churn_term =
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Dynamic-membership mode: Dynreg peers over a churning \
             membership (the sound preset — quorums widened by the churn \
             rate). Implied by any other --churn-* option.")
  in
  let churn_frontier_arg =
    Arg.(
      value & flag
      & info [ "churn-frontier" ]
          ~doc:
            "Above-bound churn with zero quorum slack under the frontier \
             delay/reorder profile — the dynamic campaign that must find a \
             reconfiguration-induced stale read.")
  in
  let seed_members_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed-members" ] ~docv:"M"
          ~doc:"Slots 0..$(docv)-1 are present at start; the rest join.")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "churn-rate" ] ~docv:"R"
          ~doc:
            "Max churn (enter/leave) events per window; 0 disables churn.")
  in
  let window_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "churn-window" ] ~docv:"W"
          ~doc:"Churn window length, in fault-layer events.")
  in
  let slack_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "churn-slack" ] ~docv:"S"
          ~doc:
            "Quorum widening handed to the emulation — sound when at least \
             the churn rate; 0 exposes the departing-acker hazard.")
  in
  let width_bits_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "width-bits" ] ~docv:"B"
          ~doc:
            "Bound Dynreg timestamps to $(docv) bits (wrapping mod 2^B) — \
             the bounded-register knob E17 sweeps.")
  in
  Term.(
    const (fun co_churn co_frontier co_seed_members co_rate co_window co_slack
               co_width_bits ->
        { co_churn; co_frontier; co_seed_members; co_rate; co_window;
          co_slack; co_width_bits })
    $ churn_arg $ churn_frontier_arg $ seed_members_arg $ rate_arg
    $ window_arg $ slack_arg $ width_bits_arg)

(* [Some config] when any churn flag asks for the dynamic fleet. The
   frontier preset's knobs are still overridable by the explicit
   options (e.g. --churn-frontier --churn-slack 12 to verify the slack
   repairs the frontier's violation). *)
let dyn_config ?n (o : churn_opts) =
  let open Msgpass.Chaos in
  let implied =
    o.co_seed_members <> None || o.co_rate <> None || o.co_window <> None
    || o.co_slack <> None || o.co_width_bits <> None
  in
  if not (o.co_churn || o.co_frontier || implied) then None
  else if o.co_frontier then
    let base = churn_frontier ?n ?seed_members:o.co_seed_members () in
    let membership =
      Option.map
        (fun d ->
          {
            d with
            churn_rate = Option.value o.co_rate ~default:d.churn_rate;
            churn_window = Option.value o.co_window ~default:d.churn_window;
            churn_slack = Option.value o.co_slack ~default:d.churn_slack;
            width_bits =
              (match o.co_width_bits with Some b -> Some b | None -> d.width_bits);
          })
        base.membership
    in
    Some { base with membership }
  else
    Some
      (churn ?n ?seed_members:o.co_seed_members ?rate:o.co_rate
         ?window:o.co_window ?slack:o.co_slack ?width_bits:o.co_width_bits ())

(* Fail fast with a readable message instead of the campaign's
   [Invalid_argument]; warnings are left to the campaign, which prints
   them once. *)
let check_config config =
  match Msgpass.Chaos.validate config with
  | Ok _ -> ()
  | Error e -> fail "invalid configuration: %s" e

(* The configuration flags chaos and fleet share: a static ABD preset
   (sound, or --frontier) or a Dynreg one ([churn_term]), with --n, --t,
   --quorum and --max-events overrides. *)
type config_opts = {
  cf_n : int option;
  cf_t : int;
  cf_quorum : int option;
  cf_frontier : bool;
  cf_churn : churn_opts;
  cf_max_events : int option;
}

let config_term =
  let n_arg = Arg.(value & opt (some int) None & info [ "n" ] ~docv:"N") in
  let t_arg = Arg.(value & opt int 1 & info [ "t" ] ~docv:"T") in
  let quorum_arg =
    Arg.(value & opt (some int) None & info [ "quorum" ] ~docv:"Q")
  in
  let frontier_arg =
    Arg.(
      value & flag
      & info [ "frontier" ]
          ~doc:
            "Use the t = n/2 frontier preset (disjoint quorums, the E13 \
             configuration).")
  in
  let max_events_arg =
    Arg.(value & opt (some int) None & info [ "max-events" ] ~docv:"E")
  in
  Term.(
    const (fun cf_n cf_t cf_quorum cf_frontier cf_churn cf_max_events ->
        { cf_n; cf_t; cf_quorum; cf_frontier; cf_churn; cf_max_events })
    $ n_arg $ t_arg $ quorum_arg $ frontier_arg $ churn_term $ max_events_arg)

(* The churn flags win over --frontier; --t and --quorum only adjust the
   sound preset. Exits 1 on a configuration [Chaos.validate] rejects. *)
let resolve_config o =
  let open Msgpass.Chaos in
  let config =
    match dyn_config ?n:o.cf_n o.cf_churn with
    | Some c -> c
    | None when o.cf_frontier -> frontier ?n:o.cf_n ()
    | None ->
        let c = sound ?n:o.cf_n ~t:o.cf_t () in
        if o.cf_quorum = None then c else { c with quorum = o.cf_quorum }
  in
  let config =
    match o.cf_max_events with
    | Some e -> { config with max_events = e }
    | None -> config
  in
  check_config config;
  config

let pp_config_line tag config =
  let open Msgpass.Chaos in
  match config.membership with
  | Some d ->
      Format.printf
        "%s: n=%d dyn seed-members=%d churn=%d/%d slack=%d width=%s@." tag
        config.n d.seed_members d.churn_rate d.churn_window d.churn_slack
        (match d.width_bits with
        | None -> "unbounded"
        | Some b -> Printf.sprintf "%db" b)
  | None ->
      Format.printf "%s: n=%d t=%d quorum=%d writes=%d readers=%dx%d@." tag
        config.n config.t
        (Option.value config.quorum ~default:(config.n - config.t))
        config.writes config.readers config.reads

let chaos_cmd =
  let doc =
    "Run a fault-injection campaign against the ABD register emulation \
     (or, with --churn, the dynamic-membership Dynreg emulation) and \
     machine-check linearizability of every run."
  in
  let runs_arg = Arg.(value & opt int 100 & info [ "runs" ] ~docv:"RUNS") in
  let plan_arg =
    Arg.(
      value & flag
      & info [ "plan" ] ~doc:"Print the shrunk fault plan of a violation.")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some (enum [ ("pass", `Pass); ("violation", `Violation) ])) None
      & info [ "expect" ] ~docv:"VERDICT"
          ~doc:
            "Exit non-zero unless the campaign outcome matches (CI smoke \
             gate).")
  in
  let chaos_deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Stop the campaign after $(docv) of wall clock; completed runs \
             still count and the report is marked degraded.")
  in
  let chaos_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign base seed. When omitted, one is auto-picked and \
             echoed — a reported violation is replayable either way.")
  in
  let run copts runs seed print_plan expect deadline jobs tel =
    with_telemetry tel @@ fun () ->
    (* Always echo the resolved seed: a violation found under an
       auto-picked seed must be replayable from the console output. *)
    let seed, picked =
      match seed with
      | Some s -> (s, "")
      | None ->
          Random.self_init ();
          (Random.int 0x3FFFFFF, " (auto-picked)")
    in
    Format.printf "seed: %d%s@." seed picked;
    emit_meta ~seed ~jobs ();
    let config = resolve_config copts in
    pp_config_line "chaos" config;
    let c = Msgpass.Chaos.campaign ?deadline ~jobs ~seed ~runs config in
    Format.printf "@[<v>%a@]@." Msgpass.Chaos.pp_campaign c;
    (match (print_plan, c.Msgpass.Chaos.first) with
    | true, Some f ->
        Format.printf "shrunk plan:@.  @[<hov>%a@]@." Msgpass.Faults.pp_plan
          f.Msgpass.Chaos.shrunk
    | _ -> ());
    match expect with
    | Some `Pass when c.Msgpass.Chaos.violations > 0 ->
        fail "expected a clean campaign, found %d violation(s)"
          c.Msgpass.Chaos.violations
    | Some `Violation when c.Msgpass.Chaos.violations = 0 ->
        fail "expected the campaign to find a violation"
    | _ -> ()
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ config_term $ runs_arg $ chaos_seed_arg $ plan_arg
      $ expect_arg $ chaos_deadline_arg $ jobs_arg $ telemetry_term)

let fleet_cmd =
  let doc =
    "Run a coverage-guided chaos fleet: generations of fresh seeded runs \
     and corpus-plan mutants, every coverage-moving plan fed back into the \
     corpus, every NONLINEARIZABLE run shrunk, deduplicated by violation \
     class and published as a replayable witness."
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Persist the corpus ($(docv)/corpus.jsonl) and witnesses \
             ($(docv)/witness-<class>.json). An existing corpus resumes: \
             ids continue and published witness classes stay deduplicated.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Fill $(docv) of wall clock with generations (checked between \
             generations, like the chaos deadline).")
  in
  let generations_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "generations" ] ~docv:"G"
          ~doc:
            "Run exactly $(docv) generations — the fully deterministic \
             mode (default 10 when no --budget is given).")
  in
  let batch_arg =
    Arg.(
      value & opt int 16
      & info [ "batch" ] ~docv:"RUNS" ~doc:"Runs per generation.")
  in
  let fleet_seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")
  in
  let expect_arg =
    Arg.(
      value
      & opt (some (enum [ ("pass", `Pass); ("witness", `Witness) ])) None
      & info [ "expect" ] ~docv:"VERDICT"
          ~doc:
            "Exit non-zero unless the fleet outcome matches: $(b,pass) \
             means no witness, $(b,witness) means at least one (CI smoke \
             gate).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of running a fleet, replay the witness file and exit \
             non-zero unless it reproduces bit-for-bit (same verdict, \
             terminal hash, event and delivery counts).")
  in
  let run copts corpus budget generations batch seed expect replay jobs
      tel =
    with_telemetry tel @@ fun () ->
    match replay with
    | Some file -> (
        match Msgpass.Fleet.replay_file file with
        | Error e -> fail "%s" e
        | Ok r ->
            let cfg = r.Msgpass.Fleet.config in
            (match cfg.Msgpass.Chaos.membership with
            | Some d ->
                Format.printf
                  "witness %s: n=%d dyn seed-members=%d slack=%d, %d \
                   action(s), %d deliveries@."
                  file cfg.Msgpass.Chaos.n d.Msgpass.Chaos.seed_members
                  d.Msgpass.Chaos.churn_slack
                  (List.length r.Msgpass.Fleet.witness_plan)
                  r.Msgpass.Fleet.stored_deliveries
            | None ->
                Format.printf
                  "witness %s: n=%d quorum=%d, %d action(s), %d deliveries@."
                  file cfg.Msgpass.Chaos.n
                  (Option.value cfg.Msgpass.Chaos.quorum
                     ~default:(cfg.Msgpass.Chaos.n - cfg.Msgpass.Chaos.t))
                  (List.length r.Msgpass.Fleet.witness_plan)
                  r.Msgpass.Fleet.stored_deliveries);
            Format.printf "replay: %a@."
              (Check.Linearize.pp_verdict Format.pp_print_int)
              r.Msgpass.Fleet.outcome.Msgpass.Chaos.verdict;
            if r.Msgpass.Fleet.bit_for_bit then
              Format.printf "bit-for-bit: reproduced@."
            else
              fail
                "bit-for-bit: MISMATCH (stored events=%d deliveries=%d \
                 hash=%016x)"
                r.Msgpass.Fleet.stored_events
                r.Msgpass.Fleet.stored_deliveries
                r.Msgpass.Fleet.stored_terminal_hash)
    | None ->
        let config = resolve_config copts in
        pp_config_line "fleet" config;
        Format.printf "fleet: batch=%d@." batch;
        emit_meta ~seed ~jobs ();
        let r =
          try
            Msgpass.Fleet.campaign ?budget ?generations ~jobs ~batch
              ?corpus_dir:corpus ~seed config
          with Msgpass.Fleet.Corpus_error e -> fail "%s" e
        in
        Format.printf "%a@." Msgpass.Fleet.pp_report r;
        let witnesses = List.length r.Msgpass.Fleet.witnesses in
        (match expect with
        | Some `Pass when witnesses > 0 ->
            fail "expected a clean fleet, found %d witness(es)" witnesses
        | Some `Witness when witnesses = 0 ->
            fail "expected the fleet to find a witness"
        | _ -> ())
  in
  Cmd.v (Cmd.info "fleet" ~doc)
    Term.(
      const run $ config_term $ corpus_arg $ budget_arg $ generations_arg
      $ batch_arg $ fleet_seed_arg $ expect_arg $ replay_arg
      $ jobs_arg $ telemetry_term)

let explore_cmd =
  let doc =
    "Budgeted exhaustive exploration of Algorithm 1's interleavings with \
     checkpoint/resume: a run cut short by --max-nodes or --deadline \
     writes its unexplored frontier to the checkpoint file; --resume picks \
     it up and continues until the enumeration is complete."
  in
  let k_arg = Arg.(value & opt int 3 & info [ "k" ] ~docv:"K") in
  let max_crashes_arg =
    Arg.(value & opt int 1 & info [ "max-crashes" ] ~docv:"C")
  in
  let max_nodes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-nodes" ] ~docv:"N"
          ~doc:"Stop after expanding $(docv) DFS nodes.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Stop exploring after $(docv) of wall clock.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt string "explore.ckpt"
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Where the unexplored frontier is saved and resumed from.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the checkpoint file instead of starting at the \
             root (flags and K must match the run that wrote it).")
  in
  let no_dedup_arg =
    Arg.(
      value & flag
      & info [ "no-dedup" ]
          ~doc:
            "Disable state deduplication: one terminal visit per schedule. \
             With $(b,--no-por) this is raw mode, where node and terminal \
             counts partition exactly across budgeted or parallel runs.")
  in
  let no_por_arg =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:"Disable sleep-set partial-order reduction.")
  in
  let run k max_crashes max_nodes deadline checkpoint resume no_dedup no_por
      jobs tel =
    with_telemetry tel @@ fun () ->
    emit_meta ~jobs ();
    let algorithm = Core.Alg1_one_bit.algorithm ~k in
    let init () =
      Sched.Scheduler.start
        ~memory:(algorithm.H.memory ())
        ~programs:(fun pid -> algorithm.H.program ~pid ~input:pid)
        ()
    in
    let resume_frontier =
      if not resume then None
      else
        let text =
          try In_channel.with_open_text checkpoint In_channel.input_all
          with Sys_error e -> cannot_read "checkpoint" checkpoint e
        in
        match Sched.Budget.frontier_of_string text with
        | Ok f ->
            Format.printf "resuming %d frontier path(s) from %s@."
              (Sched.Budget.frontier_size f) checkpoint;
            Some f
        | Error e -> fail "corrupt checkpoint %s: %s" checkpoint e
    in
    let budget = Sched.Budget.make ?deadline ?max_nodes () in
    (* The parallel driver with jobs=1 is exactly the sequential engine.
       The fold mirrors the terminal count the stats already carry and
       sums an order-insensitive digest over terminal-state signatures
       (native-int wraparound addition commutes), so the printed digest
       is independent of how the work was partitioned: any jobs width
       must reproduce it byte-for-byte in raw mode. *)
    let terminal_digest st =
      Hashtbl.hash
        ( Array.to_list (Sched.Scheduler.decisions st),
          Array.to_list (Sched.Memory.contents (Sched.Scheduler.memory st)),
          Sched.Scheduler.crashed st )
    in
    let r =
      (* A checkpoint that parses can still name a pid outside 0..n-1 or
         a process that is no longer running: the engine rejects that
         choice before replaying it. *)
      try
        Sched.Par.explore ~max_crashes ~dedup:(not no_dedup)
          ~por:(not no_por) ~budget ?resume:resume_frontier ~jobs ~init
          ~fold:(fun st (count, digest) ->
            (count + 1, digest + terminal_digest st))
          ~merge:(fun (c1, d1) (c2, d2) -> (c1 + c2, d1 + d2))
          (0, 0)
      with
      | Invalid_argument m
        when resume && String.starts_with ~prefix:"resume path " m ->
          fail "cannot resume from %s: %s" checkpoint m
    in
    let _, digest = r.Sched.Par.value in
    Format.printf "k=%d max_crashes=%d jobs=%d budget: %a@.%a@.digest=0x%08x@."
      k max_crashes r.Sched.Par.jobs Sched.Budget.pp budget
      Sched.Explore.pp_stats r.Sched.Par.stats
      (digest land 0xffffffff);
    match r.Sched.Par.outcome with
    | Sched.Explore.Complete ->
        Format.printf "outcome: complete — every terminal state visited@."
    | Sched.Explore.Exhausted { frontier; reason } ->
        write_file_atomic checkpoint (Sched.Budget.frontier_to_string frontier);
        Format.printf
          "outcome: exhausted (%a); %d frontier path(s) -> %s@.resume with: \
           boundedreg explore -k %d --max-crashes %d --resume --checkpoint \
           %s@."
          Sched.Budget.pp_stop_reason reason
          (Sched.Budget.frontier_size frontier)
          checkpoint k max_crashes checkpoint
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const run $ k_arg $ max_crashes_arg $ max_nodes_arg $ deadline_arg
      $ checkpoint_arg $ resume_arg $ no_dedup_arg $ no_por_arg $ jobs_arg
      $ telemetry_term)

let trace_cmd =
  let doc = "Inspect a trace file written by --trace." in
  let summary_cmd =
    let doc =
      "Validate and summarize a trace: every event is parsed (a malformed \
       file exits non-zero), then the Events and Span rollups sections of \
       the health report (see $(b,report)) are printed. Reads both jsonl \
       and catapult formats."
    in
    let file_arg =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
    in
    let run file =
      let report = read_report Obs.Report.validate file in
      print_string (Obs.Report.to_markdown (Obs.Report.summary report));
      Format.printf "trace %s: valid@." file
    in
    Cmd.v (Cmd.info "summary" ~doc) Term.(const run $ file_arg)
  in
  Cmd.group (Cmd.info "trace" ~doc) [ summary_cmd ]

let report_cmd =
  let doc =
    "Render a self-contained health report from telemetry artifacts: a \
     trace (jsonl, catapult, or a flight-recorder dump) and/or a \
     --metrics snapshot — event-category counts, span rollups, verdicts, \
     witness inventory, coverage-over-time curves and histogram \
     percentiles, as Markdown or HTML."
  in
  let trace_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by --trace.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Metrics snapshot written by --metrics.")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv); '-' prints to stdout.")
  in
  let html_arg =
    Arg.(
      value & flag
      & info [ "html" ] ~doc:"Render HTML (inline SVG curves) instead of \
                              Markdown.")
  in
  let run trace metrics out html =
    if trace = None && metrics = None then
      fail "nothing to report on: pass a trace file or --metrics";
    let read_file what file =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error e -> cannot_read what file e
    in
    let report =
      match trace with
      | None -> Obs.Report.create ()
      | Some file -> read_report Obs.Report.of_trace file
    in
    let parse_json what file =
      match Obs.Json.of_string (read_file what file) with
      | Ok j -> j
      | Error e -> fail "unparseable %s %s (%s)" what file e
    in
    let metrics = Option.map (parse_json "metrics snapshot") metrics in
    let blocks = Obs.Report.of_sources ?metrics report in
    let rendered =
      if html then Obs.Report.to_html blocks
      else Obs.Report.to_markdown blocks
    in
    match out with
    | "-" -> print_string rendered
    | file -> write_file_atomic file rendered
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ trace_arg $ metrics_arg $ out_arg $ html_arg)

let dot_cmd =
  let doc =
    "Emit a Graphviz rendering (task output graph or protocol complex)."
  in
  let what_arg =
    Arg.(
      required
      & pos 0 (some (enum
                       [ ("labelling", `Labelling); ("pruned", `Pruned);
                         ("renaming3", `Renaming); ("eps-grid", `Eps_grid);
                         ("hull", `Hull) ]))
          None
      & info [] ~docv:"WHAT")
  in
  let rounds_arg = Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R") in
  let run what rounds =
    let dot =
      match what with
      | `Labelling -> Experiments.Viz.labelling_path ~rounds
      | `Pruned -> Experiments.Viz.pruned_path ~delta:2 ~rounds
      | `Renaming -> Experiments.Viz.bmz_graph Tasks.Gallery.renaming3
      | `Eps_grid -> Experiments.Viz.bmz_graph (Tasks.Gallery.eps_grid ~k:3)
      | `Hull -> Experiments.Viz.bmz_graph Tasks.Gallery.hull_agreement
    in
    print_string dot
  in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ what_arg $ rounds_arg)

let () =
  let doc =
    "Executable reproduction of 'The Computational Power of Distributed \
     Shared-Memory Models with Bounded-Size Registers' (PODC 2024)"
  in
  let info = Cmd.info "boundedreg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; alg1_cmd; fast_cmd; pipeline_cmd; search_cmd;
            labelling_cmd; chaos_cmd; fleet_cmd; explore_cmd; trace_cmd;
            report_cmd; dot_cmd ]))
