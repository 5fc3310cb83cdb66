(* Closed-loop benchmark of the simulators. One caller issues fixed-size
   batches back to back for a fixed time; throughput comes from the
   median batch time, never from one wall clock. NOTES.md describes the
   workloads, every metric and the layer map.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--spawned-at UNIX_TIME] [--spans FILE]
     perfbench.exe --pins          print pins.ml from the current tree

   The last line of standard output is one JSON object with the keys
   "correct", "attempted", "failed" and "metrics". *)

module H = Tasks.Harness
module C = Msgpass.Chaos
module F = Msgpass.Fleet
module L = Check.Linearize
module W = Msgpass.Wire
module S = Sched.Scheduler
module E = Sched.Explore

let now = Unix.gettimeofday
let span = Tracer.span
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

(* [attempted] counts checked units (runs, passes, simulations);
   [failed] counts mismatches against pinned outputs; [known] counts the
   documented baseline failures — the sound-preset seeds that return
   NONLINEARIZABLE. Those are pinned, so they are not mismatches, but
   they are unexpected verdicts and count in [fail_rate]. *)
let attempted = ref 0
let failed = ref 0
let known = ref 0
let mismatches = ref []

let expect what ok =
  if not ok then begin
    incr failed;
    if List.length !mismatches < 20 then mismatches := what :: !mismatches
  end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)

(* Every metric the traced run reports, with its unit. BENCHMARK.json's
   [per_layer] lists exactly these; a layer a workload does not run
   reads 0. *)
let layer_metrics =
  [
    ("fleet.mutate_us", "us"); ("fleet.cache_hit_ratio", "share");
    ("fleet.signal_ratio", "share"); ("fleet.corpus_plans", "count");
    ("fleet.corpus_append_us", "us"); ("fleet.corpus_bytes_per_plan", "B");
    ("fleet.corpus_load_s", "s"); ("fleet.heap_kb_per_plan", "KB");
    ("faults.compile_us", "us"); ("faults.events_per_run", "count");
    ("chaos.simulate_us", "us"); ("net.sends_per_run", "count");
    ("net.deliveries_per_run", "count"); ("gc.minor_words_per_run", "words");
    ("chaos.churn_simulate_us", "us"); ("net.enters_per_run", "count");
    ("net.leaves_per_run", "count"); ("linearize.pass_us", "us");
    ("linearize.fail_us", "us"); ("linearize.ops_per_history", "count");
    ("shrink.replays", "count"); ("shrink.s", "s");
    ("explore.fused_ns_per_node", "ns"); ("explore.journal_ns_per_node", "ns");
    ("explore.reduced_ns_per_node", "ns"); ("explore.dedup_ratio", "share");
    ("explore.pruned_ratio", "share"); ("gc.minor_words_per_node", "words");
    ("explore.visit_ns", "ns"); ("explore.init_us", "us");
    ("harness.run_s", "s"); ("pipeline.steps_per_proc", "count");
    ("pipeline.register_bits", "bits"); ("wire.encodes", "count");
    ("wire.decodes", "count"); ("gc.major_words_per_step", "words");
    ("gc.top_heap_mb", "MB"); ("obs.trace_overhead", "ratio");
    ("metrics.sched_steps", "count"); ("metrics.sched_reads", "count");
    ("metrics.sched_writes", "count"); ("metrics.net_sends", "count");
    ("metrics.net_deliveries", "count"); ("metrics.explore_nodes", "count");
    ("metrics.chaos_runs", "count"); ("metrics.fleet_runs", "count");
    ("metrics.harness_random_runs", "count"); ("self.batch_s", "s");
    ("self.fleet_s", "s"); ("self.faults_s", "s"); ("self.chaos_s", "s");
    ("self.membership_s", "s"); ("self.linearize_s", "s");
    ("self.shrink_s", "s"); ("self.explore_s", "s"); ("self.program_s", "s");
    ("self.scheduler_s", "s"); ("self.pipeline_s", "s"); ("self.task_s", "s");
    ("reconcile.ratio", "ratio"); ("reconcile.estimated_share", "share");
    ("fail_rate", "share"); ("batches", "count");
  ]

(* Span layers, as named by the span prefixes below. *)
let span_layers =
  [ "batch"; "fleet"; "faults"; "chaos"; "membership"; "linearize"; "shrink";
    "explore"; "program"; "scheduler"; "pipeline"; "task" ]

(* The traced run's layer self times must sum to within this share of
   the untraced wall time of the same batches. *)
let reconcile_tolerance = 0.25

let layer_values : (string, float) Hashtbl.t = Hashtbl.create 64

let set name v =
  if not (List.mem_assoc name layer_metrics) then
    invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_values name v

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)

type instance = {
  unit_name : string;  (** the work unit: runs, nodes or steps *)
  warmup : int;  (** untimed batches before timing *)
  batch : int -> int;  (** timed: batch index -> work units done *)
  check : int -> unit;  (** untimed: verify batch i's outputs *)
  at_boundary : unit -> bool;  (** timing may stop after this batch *)
  reset : unit -> unit;  (** rewind before the traced batches *)
  finish : unit -> unit;  (** untimed pinned checks, once per run *)
  sample : unit -> unit;
      (** traced run, before the traced batches: per-call costs of the
          public functions an opaque call is made of *)
  report : unit -> unit;  (** traced run, after: per-layer metrics *)
  own_time : unit -> float option;
      (** the last batch's duration, when the batch times itself *)
}

let instance ~unit_name ~batch =
  {
    unit_name;
    warmup = 2;
    batch;
    check = (fun _ -> ());
    at_boundary = (fun () -> true);
    reset = (fun () -> ());
    finish = (fun () -> ());
    sample = (fun () -> ());
    report = (fun () -> ());
    own_time = (fun () -> None);
  }

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0.
          | Some l ->
              if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                    fi kb /. 1024.)
              else go ()
        in
        go ())
  with Sys_error _ -> 0.

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Mean seconds per call of [f] over [xs], and the results. *)
let mean_time f xs =
  let t0 = now () in
  let ys = List.map f xs in
  (ratio (now () -. t0) (fi (List.length xs)), ys)

let sound = C.sound ()
let churn = C.churn ()
let frontier = C.frontier ()

(* The frontier counterexample every chaos surface pins: seed 127
   shrinks to 23 events and 19 deliveries in 1,746 replays. Returns the
   seconds per replay. *)
let frontier_shrink () =
  let o = C.run_random ~seed:127 frontier in
  let t0 = now () in
  let plan, replays =
    span "shrink.ddmin" (fun () ->
        C.shrink frontier (Msgpass.Faults.decompile o.C.plan))
  in
  let dt = now () -. t0 in
  let events = List.length plan and deliveries = Msgpass.Faults.deliveries plan in
  incr attempted;
  expect
    (Printf.sprintf "seed-127 frontier shrink: %b, %d events, %d deliveries, %d replays"
       (C.failed o) events deliveries replays)
    (C.failed o && events = 23 && deliveries = 19 && replays = 1746);
  set "shrink.replays" (fi replays);
  set "shrink.s" dt;
  dt /. fi replays

(* Per-run costs of chaos runs, split into simulation and the
   linearizability check of the run's history (re-run on its own), and
   per-run counts. *)
type run_costs = {
  simulate : float;  (** seconds per run, check excluded *)
  pass : float;  (** seconds per check of a linearizable history *)
  fail : float;  (** ... of a nonlinearizable one; 0 if none failed *)
  ops : float;  (** operations per history *)
  events : float;  (** fault-layer actions per run *)
  minor_words : float;
  per_run : string -> float;  (** a registry counter's increase per run *)
}

let sample_runs runs =
  let t0 = now () in
  let outcomes = runs () in
  let run_s = now () -. t0 in
  let n = fi (List.length outcomes) in
  let per x = ratio x n in
  let checks =
    List.map
      (fun (o : C.outcome) ->
        let t0 = now () in
        let v =
          L.check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal
            o.C.history
        in
        (now () -. t0, match v with L.Linearizable _ -> true | _ -> false))
      outcomes
  in
  let total p =
    List.fold_left
      (fun (s, k) (dt, ok) -> if p ok then (s +. dt, k + 1) else (s, k))
      (0., 0) checks
  in
  let pass_s, passes = total Fun.id and fail_s, fails = total not in
  let sum f = fi (List.fold_left (fun a o -> a + f o) 0 outcomes) in
  (* The per-operation network counters need the hot gate, which slows
     the runs: count on a second, untimed execution of the same runs. *)
  let names = [ "net.sends"; "net.deliveries"; "net.enters"; "net.leaves" ] in
  let before = List.map counter names in
  let words0 = Gc.minor_words () in
  Obs.Metrics.hot := true;
  ignore (runs () : C.outcome list);
  Obs.Metrics.hot := false;
  let words = Gc.minor_words () -. words0 in
  let deltas = List.map2 (fun name b -> (name, per (fi (counter name - b)))) names before in
  {
    simulate = per (run_s -. pass_s -. fail_s);
    pass = ratio pass_s (fi passes);
    fail = ratio fail_s (fi fails);
    ops = per (sum (fun o -> List.length o.C.history));
    events = per (sum (fun o -> o.C.events));
    minor_words = per words;
    per_run = (fun name -> List.assoc name deltas);
  }

(* The static-ABD layer metrics, from runs of [sample_runs]. *)
let set_static_run_metrics c =
  set "chaos.simulate_us" (c.simulate *. 1e6);
  set "linearize.pass_us" (c.pass *. 1e6);
  set "linearize.fail_us" (c.fail *. 1e6);
  set "linearize.ops_per_history" c.ops;
  set "faults.events_per_run" c.events;
  set "net.sends_per_run" (c.per_run "net.sends");
  set "net.deliveries_per_run" (c.per_run "net.deliveries");
  set "gc.minor_words_per_run" c.minor_words

(* --- fleet-frontier ------------------------------------------------ *)

(* One batch: a campaign of [fleet_generations] generations of 16 runs
   on the frontier preset with its corpus persisted to a fresh
   directory, then a resume over that corpus for [resume_generations]
   generations with another seed. Batch i runs campaign seed
   1 + (seed + i) mod 40, so every run cycles through the same 40
   campaigns (the published seed 9 among them), and each one's report
   digest is pinned. *)
let fleet_generations = 20
let resume_generations = 7
let fleet_campaigns = 40
let frontier_class = 0x11d375a62583849e

(* Share of a generation's jobs that are mutants or crossovers of
   corpus plans once the corpus is non-empty (Fleet.campaign draws a
   fresh seeded job with probability 1/4). *)
let mutant_share = 0.75

let fleet_seed ~seed i =
  1 + ((((seed + i) mod fleet_campaigns) + fleet_campaigns) mod fleet_campaigns)

(* [estimate ~resumed r] runs inside each campaign span, once the
   campaign has reported. *)
let fleet_batch ~dir ~seed ~estimate =
  let r =
    span "fleet.campaign" (fun () ->
        let r =
          F.campaign ~generations:fleet_generations ~corpus_dir:dir ~seed
            frontier
        in
        estimate ~resumed:0 r;
        r)
  in
  let r2 =
    span "fleet.resume" (fun () ->
        let r2 =
          F.campaign ~generations:resume_generations ~corpus_dir:dir
            ~seed:(seed + 500_000) frontier
        in
        estimate ~resumed:r.F.corpus_size r2;
        r2)
  in
  (r, r2)

(* Witness file names appear in the report text, so every batch uses
   this directory. *)
let fleet_dir = "fleet-corpus"

let fleet_text (r, r2) =
  Format.asprintf "%a@.%a" F.pp_report r F.pp_report r2

let fleet ~seed =
  let reports = Hashtbl.create 256 in
  (* sampled per-call costs; None outside the traced run *)
  let costs = ref None in
  let estimate ~resumed (r : F.report) =
    match !costs with
    | None -> ()
    | Some (mutate, compile, append, run, replay, load) ->
        let runs = fi r.F.runs in
        let replays =
          List.fold_left (fun a (w : F.witness) -> a + w.F.shrink_tests) 0 r.F.witnesses
        in
        let reexec = fi resumed in
        Tracer.estimate
          [
            ("fleet.mutate", mutant_share *. runs *. mutate);
            ("faults.compile", ((mutant_share *. runs) +. reexec) *. compile);
            ("chaos.simulate", (runs +. reexec) *. run.simulate);
            ( "linearize.check",
              ((runs +. reexec -. fi r.F.violations) *. run.pass)
              +. (fi r.F.violations *. run.fail) );
            ("fleet.corpus_append", fi r.F.corpus_added *. append);
            ("fleet.corpus_load", reexec *. load);
            ("shrink.ddmin", fi replays *. replay);
          ]
  in
  let batch i =
    rm_rf fleet_dir;
    let r = fleet_batch ~dir:fleet_dir ~seed:(fleet_seed ~seed i) ~estimate in
    Hashtbl.replace reports i r;
    (fst r).F.runs + (snd r).F.runs
  in
  let check i =
    let ((r, r2) as both) = Hashtbl.find reports i in
    Hashtbl.remove reports i;
    attempted := !attempted + r.F.runs + r2.F.runs;
    let s = fleet_seed ~seed i in
    let say fmt = Printf.sprintf ("fleet seed %d: " ^^ fmt) s in
    expect (say "runs %d+%d" r.F.runs r2.F.runs)
      (r.F.runs = 16 * fleet_generations && r2.F.runs = 16 * resume_generations);
    List.iter
      (fun (w : F.witness) ->
        expect (say "witness class %016x" w.F.class_key)
          (w.F.class_key = frontier_class))
      (r.F.witnesses @ r2.F.witnesses);
    expect (say "resume corpus size %d" r2.F.corpus_size)
      (r2.F.corpus_size = r.F.corpus_size + r2.F.corpus_added);
    (match F.load_corpus fleet_dir with
    | Ok entries ->
        expect (say "corpus on disk") (List.length entries = r2.F.corpus_size)
    | Error e -> expect (say "corpus: %s" e) false);
    let digest = hex (fleet_text both) in
    expect (say "report digest %s" digest) (digest = Pins.fleet_digests.(s - 1));
    if !Tracer.enabled then begin
      set "fleet.cache_hit_ratio"
        (ratio (fi (r.F.cache_hits + r2.F.cache_hits))
           (fi (r.F.cache_lookups + r2.F.cache_lookups)));
      set "fleet.signal_ratio"
        (ratio (fi (r.F.signals + r2.F.signals)) (fi (r.F.runs + r2.F.runs)))
    end;
    rm_rf fleet_dir
  in
  let sample () =
    (* costs of the public per-run functions on the plans of a corpus
       the published seed 9 writes *)
    let d = "fleet-sample" in
    rm_rf d;
    ignore
      (F.campaign ~generations:fleet_generations ~corpus_dir:d
         ~seed:9 frontier
        : F.report);
    let t0 = now () in
    let entries =
      match span "fleet.corpus_load" (fun () -> F.load_corpus d) with
      | Ok e -> e
      | Error e ->
          expect ("fleet sample corpus: " ^ e) false;
          []
    in
    let load_s = now () -. t0 in
    let plans = List.length entries in
    let bytes = (Unix.stat (Filename.concat d "corpus.jsonl")).Unix.st_size in
    set "fleet.corpus_plans" (fi plans);
    set "fleet.corpus_load_s" load_s;
    set "fleet.corpus_bytes_per_plan" (ratio (fi bytes) (fi plans));
    set "fleet.heap_kb_per_plan"
      (ratio (fi (Obj.reachable_words (Obj.repr entries) * 8) /. 1024.) (fi plans));
    let rng = Bits.Rng.make 9 in
    let n = frontier.C.n in
    let mutate, mutants =
      mean_time (fun (e : F.entry) -> F.mutate rng ~n e.F.plan) entries
    in
    let compile, compiled = mean_time (Msgpass.Faults.compile ~n) mutants in
    let run = sample_runs (fun () -> List.map (C.run_compiled frontier) compiled) in
    set_static_run_metrics run;
    let append_file = Filename.concat d "append-sample.jsonl" in
    let append, _ =
      mean_time
        (fun (e : F.entry) ->
          let line =
            Obs.Json.to_string
              (Obs.Json.Obj
                 [
                   ("id", Obs.Json.Int e.F.id);
                   ("origin", Obs.Json.Str e.F.origin);
                   ("plan", Msgpass.Faults.plan_to_json e.F.plan);
                 ])
          in
          let oc = open_out_gen [ Open_append; Open_creat ] 0o644 append_file in
          output_string oc line;
          output_char oc '\n';
          close_out oc)
        entries
    in
    let replay = frontier_shrink () in
    set "fleet.mutate_us" (mutate *. 1e6);
    set "faults.compile_us" (compile *. 1e6);
    set "fleet.corpus_append_us" (append *. 1e6);
    rm_rf d;
    costs := Some (mutate, compile, append, run, replay, ratio load_s (fi plans))
  in
  {
    (instance ~unit_name:"runs" ~batch) with
    check;
    finish = (fun () -> ignore (frontier_shrink () : float));
    sample;
  }

(* --- chaos-sound-churn --------------------------------------------- *)

(* One batch is block b of the seed ranges: Chaos.campaign over sound
   seeds [1000b+1 .. 1000b+1000], then over churn seeds
   [250b+1 .. 250b+250]. Batch i runs block (seed + i) mod 40, so every
   run sweeps sound seeds 1..40,000 in order, wrapping — including the
   two known NONLINEARIZABLE sound seeds, 6299 and 26340 (blocks 6 and
   26). Each block's campaign texts are pinned. *)
let chaos_blocks = 40
let sound_block = 1000
let churn_block = 250

let block ~seed i = (((seed + i) mod chaos_blocks) + chaos_blocks) mod chaos_blocks

(* [sound_done]/[churn_done] run inside each campaign's span. *)
let chaos_campaigns ?(sound_done = ignore) ?(churn_done = ignore) b =
  let cs =
    span "chaos.sound" (fun () ->
        let cs = C.campaign ~seed:(1 + (sound_block * b)) ~runs:sound_block sound in
        sound_done cs;
        cs)
  in
  let cc =
    span "membership.churn" (fun () ->
        let cc = C.campaign ~seed:(1 + (churn_block * b)) ~runs:churn_block churn in
        churn_done cc;
        cc)
  in
  (cs, cc)

let chaos_text (cs, cc) =
  Format.asprintf "%a@.%a" C.pp_campaign cs C.pp_campaign cc

let chaos ~seed =
  let results = Hashtbl.create 64 in
  let costs = ref None in
  let estimate parts = Option.iter (fun c -> Tracer.estimate (parts c)) !costs in
  let sound_done (cs : C.campaign) =
    estimate (fun (s, _, replay) ->
        let runs = fi cs.C.runs and bad = fi cs.C.violations in
        [
          ("chaos.simulate", runs *. s.simulate);
          ("linearize.check", ((runs -. bad) *. s.pass) +. (bad *. s.fail));
          ( "shrink.ddmin",
            match cs.C.first with
            | Some f -> fi f.C.shrink_tests *. replay
            | None -> 0. );
        ])
  in
  let churn_done (cc : C.campaign) =
    estimate (fun (_, c, _) ->
        [
          ("membership.simulate", fi cc.C.runs *. c.simulate);
          ("linearize.check", fi cc.C.runs *. c.pass);
        ])
  in
  let batch i =
    let cs, cc = chaos_campaigns ~sound_done ~churn_done (block ~seed i) in
    Hashtbl.replace results i (cs, cc);
    cs.C.runs + cc.C.runs
  in
  let check i =
    let ((cs, cc) as both) = Hashtbl.find results i in
    Hashtbl.remove results i;
    let b = block ~seed i in
    attempted := !attempted + cs.C.runs + cc.C.runs;
    known := !known + cs.C.violations;
    let digest = hex (chaos_text both) in
    expect
      (Printf.sprintf "chaos block %d: digest %s" b digest)
      (digest = Pins.chaos_blocks.(b))
  in
  let sample () =
    let seeds k = List.init 200 (fun j -> 1 + (k * j)) in
    let s =
      sample_runs (fun () ->
          List.map (fun seed -> C.run_random ~seed sound) (6299 :: seeds 197))
    in
    set_static_run_metrics s;
    let c =
      sample_runs (fun () -> List.map (fun seed -> C.run_random ~seed churn) (seeds 49))
    in
    set "chaos.churn_simulate_us" (c.simulate *. 1e6);
    set "net.enters_per_run" (c.per_run "net.enters");
    set "net.leaves_per_run" (c.per_run "net.leaves");
    let compile, _ =
      mean_time
        (fun seed ->
          let o = C.run_random ~seed sound in
          Msgpass.Faults.compile ~n:sound.C.n (Msgpass.Faults.decompile o.C.plan))
        (seeds 197)
    in
    set "faults.compile_us" (compile *. 1e6);
    (* a sound-preset replay costs one run *)
    costs := Some (s, c, s.simulate +. s.pass)
  in
  {
    (instance ~unit_name:"runs" ~batch) with
    warmup = 4;
    check;
    finish = (fun () -> ignore (frontier_shrink () : float));
    sample;
  }

(* --- explore-alg1 -------------------------------------------------- *)

(* One batch is three explorations of Algorithm 1, as
   [boundedreg explore] builds it: raw crash-free (the fused walk), raw
   with one crash (the journaled walk), dedup+POR with one crash (the
   Zobrist visited set and sleep sets). Batch i gives the two processes
   input vector (seed + i) mod 4; node and terminal counts and the
   per-input terminal digests are pinned. *)
type pass = {
  label : string;  (** span name *)
  k : int;
  max_crashes : int;
  reduced : bool;
}

let passes =
  [|
    { label = "explore.fused"; k = 5; max_crashes = 0; reduced = false };
    { label = "explore.journal"; k = 4; max_crashes = 1; reduced = false };
    { label = "explore.reduced"; k = 100; max_crashes = 1; reduced = true };
  |]

let input_vectors = [| [| 0; 1 |]; [| 1; 0 |]; [| 0; 0 |]; [| 1; 1 |] |]

(* The visitor of [boundedreg explore]: an order-insensitive sum of
   terminal-state hashes. *)
let terminal_digest st =
  Hashtbl.hash
    ( Array.to_list (S.decisions st),
      Array.to_list (Sched.Memory.contents (S.memory st)),
      S.crashed st )

(* Traced-run tallies of one workload: every [visit_stride]-th visit is
   timed, to price the benchmark's own visitor apart from the engine,
   and every init (program start) is timed. *)
type tally = {
  mutable visit_s : float;
  mutable visits : int;
  mutable init_s : float;
  mutable inits : int;
}

let visit_stride = 64

let explore_pass ?tally p inputs =
  let algorithm = Core.Alg1_one_bit.algorithm ~k:p.k in
  let start () =
    S.start
      ~memory:(algorithm.H.memory ())
      ~programs:(fun pid -> algorithm.H.program ~pid ~input:inputs.(pid))
      ()
  in
  let digest = ref 0 in
  let add st = digest := !digest + terminal_digest st in
  let init, visit =
    match tally with
    | None -> (start, add)
    | Some t ->
        let count = ref 0 in
        ( (fun () ->
            let t0 = now () in
            let st = span "program.init" start in
            t.init_s <- t.init_s +. (now () -. t0);
            t.inits <- t.inits + 1;
            st),
          fun st ->
            incr count;
            if !count mod visit_stride <> 0 then add st
            else begin
              let t0 = now () in
              add st;
              t.visit_s <- t.visit_s +. (now () -. t0);
              t.visits <- t.visits + 1
            end )
  in
  let r =
    E.explore ~max_crashes:p.max_crashes ~dedup:p.reduced ~por:p.reduced ~init
      visit
  in
  (r, !digest land 0xffffffff)

let explore ~seed =
  let results = Hashtbl.create 256 in
  let vector i = (((seed + i) mod 4) + 4) mod 4 in
  let t = { visit_s = 0.; visits = 0; init_s = 0.; inits = 0 } in
  (* per pass: engine seconds (visitor and init excluded) and stats *)
  let engine = Array.make (Array.length passes) 0. in
  let stats = Array.make (Array.length passes) E.zero_stats in
  let words = ref 0. in
  let traced_pass j p inputs =
    let t0 = now () and v0 = t.visit_s and n0 = t.visits and i0 = t.init_s in
    let ((r, _) as res) = explore_pass ~tally:t p inputs in
    let visits =
      ratio (t.visit_s -. v0) (fi (t.visits - n0)) *. fi r.E.stats.E.terminals
    in
    Tracer.estimate [ ("explore.visit", visits) ];
    engine.(j) <- engine.(j) +. (now () -. t0) -. visits -. (t.init_s -. i0);
    stats.(j) <- E.add_stats stats.(j) r.E.stats;
    res
  in
  let batch i =
    let inputs = input_vectors.(vector i) in
    let w0 = Gc.minor_words () in
    let out =
      Array.mapi
        (fun j p ->
          span p.label (fun () ->
              if !Tracer.enabled then traced_pass j p inputs
              else explore_pass p inputs))
        passes
    in
    if !Tracer.enabled then words := !words +. (Gc.minor_words () -. w0);
    Hashtbl.replace results i out;
    Array.fold_left (fun a ((r : E.result), _) -> a + r.E.stats.E.nodes) 0 out
  in
  let check i =
    let out = Hashtbl.find results i in
    Hashtbl.remove results i;
    Array.iteri
      (fun j ((r : E.result), digest) ->
        incr attempted;
        let pinned_nodes, pinned_terminals = Pins.explore_counts.(j) in
        let s = r.E.stats in
        expect
          (Printf.sprintf "%s inputs %d: nodes=%d terminals=%d digest=0x%08x"
             passes.(j).label (vector i) s.E.nodes s.E.terminals digest)
          (r.E.outcome = E.Complete && s.E.nodes = pinned_nodes
          && s.E.terminals = pinned_terminals
          && digest = Pins.explore_digests.(j).(vector i)))
      out
  in
  let report () =
    Array.iteri
      (fun j metric ->
        set metric (ratio engine.(j) (fi stats.(j).E.nodes) *. 1e9))
      [| "explore.fused_ns_per_node"; "explore.journal_ns_per_node";
         "explore.reduced_ns_per_node" |];
    let reduced = stats.(2) in
    set "explore.dedup_ratio" (ratio (fi reduced.E.deduped) (fi reduced.E.nodes));
    set "explore.pruned_ratio" (ratio (fi reduced.E.pruned) (fi reduced.E.nodes));
    let nodes = Array.fold_left (fun a s -> a + s.E.nodes) 0 stats in
    set "gc.minor_words_per_node" (ratio !words (fi nodes));
    set "explore.visit_ns" (ratio t.visit_s (fi t.visits) *. 1e9);
    set "explore.init_us" (ratio t.init_s (fi t.inits) *. 1e6)
  in
  { (instance ~unit_name:"nodes" ~batch) with check; report }

(* The explore-alg1 batches are not among the gated workloads (see
   NOTES.md), so the pipeline's traced run, the other shared-memory
   workload, prices the exploration engine: one batch per input
   vector, off the clock, pinned like the workload's own. *)
let sample_explore ~seed () =
  let e = explore ~seed in
  for i = 0 to Array.length input_vectors - 1 do
    ignore (e.batch i : int);
    e.check i
  done;
  e.report ()

(* --- pipeline-thm13 ------------------------------------------------ *)

(* Theorem 1.3's compilation (E5's source protocol and codecs) with
   n = 3, t = 1, rounds = 1, checked the way Harness.check_random checks
   one seeded run. The simulation is driven in chunks of [chunk_steps]
   scheduler steps — one batch per chunk, each continuing the same
   rng stream, so the run is step for step the one check_random makes —
   and timing stops only between simulations. Simulation j of a run uses
   pinned seed (seed + j) mod 13; every pinned seed is one whose run
   takes ~927k steps per process, as the published seed 31 does. *)
let pipe_n = 3
let pipe_t = 1
let pipe_rounds = 1
let chunk_steps = 50_000
let pipe_max_steps = 400_000_000

let encodes = ref 0
let decodes = ref 0

(* Codecs that count their calls, handed to Pipeline.algorithm in the
   traced run. *)
let counted (c : 'a W.codec) : 'a W.codec =
  {
    W.to_string = (fun v -> incr encodes; c.W.to_string v);
    W.of_string = (fun s -> incr decodes; c.W.of_string s);
  }

let pipe_algorithm () =
  let value = W.list_codec (W.pair_codec W.int_codec W.rational_codec) in
  let value, input =
    if !Tracer.enabled then (counted value, counted W.int_codec)
    else (value, W.int_codec)
  in
  Msgpass.Pipeline.algorithm ~n:pipe_n ~t:pipe_t ~value ~input ~init:[]
    ~source:(fun ~pid ~input ->
      Core.Baseline_unbounded.protocol ~n:pipe_n ~rounds:pipe_rounds ~me:pid
        ~input)
    ~name:"pipeline(n=3,t=1)" ()

let pipe_task =
  Tasks.Eps_agreement.task ~n:pipe_n
    ~k:(Core.Baseline_unbounded.denominator ~rounds:pipe_rounds)

(* Harness.check_random's crash pattern: at most [resilience] pids,
   each crashing within its first 30 steps. *)
let random_crash_pattern rng ~n ~resilience =
  let how_many = Bits.Rng.int rng (resilience + 1) in
  let pids = Array.init n Fun.id in
  Bits.Rng.shuffle rng pids;
  List.init how_many (fun i -> (pids.(i), Bits.Rng.int rng 30))

type ('v, 'o) sim = {
  sim_seed : int;
  inputs : int array;
  crashes : (int * int) list;
  rng : Bits.Rng.t;
  state : ('v, int, 'o) S.state;
}

let pipe_start sim_seed =
  let configurations = Array.of_list (Tasks.Task.input_configurations pipe_task) in
  let algorithm = pipe_algorithm () in
  let rng = Bits.Rng.make sim_seed in
  let ci = Bits.Rng.int rng (Array.length configurations) in
  let inputs = configurations.(ci) in
  let crashes = random_crash_pattern rng ~n:pipe_n ~resilience:pipe_t in
  let codes =
    Array.init pipe_n (fun pid ->
        Sched.Program.compile (algorithm.H.program ~pid ~input:inputs.(pid)))
  in
  let state =
    S.start_compiled ~memory:(algorithm.H.memory ()) ~programs:(fun pid -> codes.(pid)) ()
  in
  { sim_seed; inputs; crashes; rng; state }

let steps_per_proc st =
  let m = ref 0 in
  for pid = 0 to S.n st - 1 do m := max !m (S.steps_of st pid) done;
  !m

(* One chunk of a simulation: steps taken, and the task verdict once
   the simulation is over. *)
let pipe_chunk sim =
  let before = S.steps_taken sim.state in
  span "scheduler.run_random" (fun () ->
      S.run_random ~max_steps:chunk_steps ~crashes:sim.crashes ~until_outputs:true
        sim.rng sim.state);
  let st = sim.state in
  let over = S.all_output st || S.running_count st = 0 || S.steps_taken st >= pipe_max_steps in
  let verdict =
    if not over then None
    else
      Some
        (span "task.check" (fun () ->
             if not (S.all_output st) then "undecided at the step budget"
             else
               match Tasks.Task.check pipe_task ~inputs:sim.inputs ~outputs:(S.decisions st) with
               | Ok () -> "pass"
               | Error e -> String.map (fun c -> if c = '\n' then ' ' else c) e))
  in
  (S.steps_taken st - before, verdict)

(* What a finished simulation reports. *)
type summary = {
  of_seed : int;
  verdict : string;
  per_proc : int;
  bits : int;
  hwm_mb : float;  (** the simulating process's peak RSS *)
  encodes : int;
  decodes : int;
  major_per_step : float;
  top_heap_mb : float;
}

(* Each simulation runs in a forked child: the heap a simulation leaves
   behind is not reused by the next one in the same process (a process
   running one after another grows by ~450 MB per simulation — what
   OOM-kills [boundedreg run E5]), so a fresh process per simulation is
   what keeps peak RSS a property of one simulation. The child reports
   every chunk on a pipe as it completes — "S ..." lines for its spans,
   then "C <steps> <seconds>", or "L <steps> <seconds> <summary>" for
   the last chunk — and then waits for a byte from the parent before the
   next chunk, so that the parent's calibration kernel never runs
   alongside it. *)
let run_child oc go sim_seed =
  Tracer.spans := [];
  encodes := 0;
  decodes := 0;
  let sim = span "pipeline.compile" (fun () -> pipe_start sim_seed) in
  let gc0 = Gc.quick_stat () in
  let steps_total = ref 0 in
  let rec loop () =
    let t0 = now () in
    let steps, verdict = pipe_chunk sim in
    let dt = now () -. t0 in
    steps_total := !steps_total + steps;
    List.iter
      (fun (sp : Tracer.span) ->
        Printf.fprintf oc "S %.6f %.6f %s\n" sp.Tracer.start sp.Tracer.stop sp.Tracer.name)
      (List.rev !Tracer.spans);
    Tracer.spans := [];
    match verdict with
    | None ->
        Printf.fprintf oc "C %d %.9f\n%!" steps dt;
        ignore (input_char go : char);
        loop ()
    | Some verdict ->
        let gc = Gc.quick_stat () in
        Printf.fprintf oc "L %d %.9f %d %d %.1f %d %d %.6g %.1f %s\n%!" steps dt
          (steps_per_proc sim.state)
          (Sched.Memory.max_bits_written (S.memory sim.state))
          (peak_rss_mb ()) !encodes !decodes
          (ratio (gc.Gc.major_words -. gc0.Gc.major_words) (fi !steps_total))
          (fi (gc.Gc.top_heap_words * 8) /. 1e6)
          verdict
  in
  loop ()

let child_peak_mb = ref 0.

let pipeline ~seed =
  let pinned = Pins.pipeline_seeds in
  let count = Array.length pinned in
  let sim_seed j = fst pinned.((((seed + j) mod count) + count) mod count) in
  let started = ref 0 in
  let child = ref None in
  (* the traced run's counter pass simulates in-process instead *)
  let isolate = ref true and current = ref None in
  let finished = Hashtbl.create 8 in
  (* the child's own timing of its last chunk: the parent's wait for the
     line would miss work the child did while the parent was busy *)
  let last_dt = ref None in
  let reap () =
    match !child with
    | None -> ()
    | Some (pid, ic, go, _) ->
        close_in ic;
        close_out go;
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid : int * Unix.process_status);
        child := None
  in
  let spawn () =
    let s = sim_seed !started in
    incr started;
    flush_all ();
    let r, w = Unix.pipe ~cloexec:true () in
    let go_r, go_w = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        Unix.close go_w;
        let oc = Unix.out_channel_of_descr w in
        (try run_child oc (Unix.in_channel_of_descr go_r) s
         with e -> Printf.fprintf oc "E %s\n%!" (Printexc.to_string e));
        Unix._exit 0
    | pid ->
        Unix.close w;
        Unix.close go_r;
        child :=
          Some (pid, Unix.in_channel_of_descr r, Unix.out_channel_of_descr go_w, s)
  in
  let rec read i =
    match !child with
    | None -> 0
    | Some (_, ic, _, s) -> (
        match input_line ic with
        | exception End_of_file ->
            reap ();
            expect (Printf.sprintf "pipeline seed %d: simulation process died" s) false;
            0
        | line -> (
            match line.[0] with
            | 'S' ->
                Scanf.sscanf line "S %f %f %s" (fun start stop name ->
                    Tracer.adopt ~name ~start ~stop ());
                read i
            | 'C' ->
                Scanf.sscanf line "C %d %f" (fun steps dt ->
                    last_dt := Some dt;
                    steps)
            | 'L' ->
                let steps, summary =
                  Scanf.sscanf line "L %d %f %d %d %f %d %d %f %f %[^\n]"
                    (fun steps dt per_proc bits hwm_mb encodes decodes major top verdict ->
                      last_dt := Some dt;
                      ( steps,
                        { of_seed = s; verdict; per_proc; bits; hwm_mb; encodes;
                          decodes; major_per_step = major; top_heap_mb = top } ))
                in
                Hashtbl.replace finished i summary;
                reap ();
                steps
            | _ ->
                reap ();
                expect (Printf.sprintf "pipeline seed %d: %s" s line) false;
                0))
  in
  let batch i =
    last_dt := None;
    if !isolate then begin
      (match !child with
      | None -> spawn ()
      | Some (_, _, go, _) ->
          output_char go 'g';
          flush go);
      read i
    end
    else begin
      let sim =
        match !current with
        | Some sim -> sim
        | None ->
            let sim = pipe_start (sim_seed 0) in
            current := Some sim;
            sim
      in
      fst (pipe_chunk sim)
    end
  in
  let check i =
    match Hashtbl.find_opt finished i with
    | None -> ()
    | Some m ->
        Hashtbl.remove finished i;
        incr attempted;
        child_peak_mb := Float.max !child_peak_mb m.hwm_mb;
        expect
          (Printf.sprintf "pipeline seed %d: %s, %d steps/proc, %d register bits"
             m.of_seed m.verdict m.per_proc m.bits)
          (m.verdict = "pass"
          && m.bits = Msgpass.Pipeline.register_bits ~t:pipe_t ~chunk:1
          && m.per_proc = List.assoc m.of_seed (Array.to_list pinned));
        if !Tracer.enabled then begin
          set "pipeline.steps_per_proc" (fi m.per_proc);
          set "pipeline.register_bits" (fi m.bits);
          set "wire.encodes" (fi m.encodes);
          set "wire.decodes" (fi m.decodes);
          set "gc.major_words_per_step" m.major_per_step;
          set "gc.top_heap_mb" m.top_heap_mb
        end
  in
  let reset () =
    reap ();
    current := None;
    started := 0
  in
  let report () =
    (* One real Harness.check_random of the first simulation's seed: the
       chunked drive must reproduce its steps per process. *)
    let s0 = sim_seed 0 in
    let algorithm = pipe_algorithm () in
    let t0 = now () in
    let r =
      span "task.check_random" (fun () ->
          H.check_random ~task:pipe_task ~algorithm ~resilience:pipe_t
            ~max_steps:pipe_max_steps ~runs:1 ~seed:s0 ())
    in
    set "harness.run_s" (now () -. t0);
    incr attempted;
    expect
      (Printf.sprintf "Harness.check_random seed %d" s0)
      (match r with
      | H.Pass st -> st.H.max_process_steps = List.assoc s0 (Array.to_list pinned)
      | H.Fail _ -> false);
    isolate := false
  in
  {
    (instance ~unit_name:"steps" ~batch) with
    warmup = 0;
    check;
    at_boundary = (fun () -> !child = None);
    reset;
    sample = sample_explore ~seed;
    report;
    own_time = (fun () -> !last_dt);
  }

let workloads =
  [
    ("fleet-frontier", fleet);
    ("chaos-sound-churn", chaos);
    ("explore-alg1", explore);
    ("pipeline-thm13", pipeline);
  ]

(* ------------------------------------------------------------------ *)
(* Statistics and the run loop                                         *)

(* Linear-interpolation quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let pos = q *. fi (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((pos -. fi lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let setup_reps = 5

(* Batches of the traced run's counter pass. *)
let counter_batches = 5

let json_metric (name, value, unit_) =
  Printf.sprintf "%S: {\"value\": %.9g, \"unit\": %S}" name value unit_

(* The traced run, after the untraced one: per-call sampling, the same
   batches again with spans on, then a counter pass. Sets every
   per-layer metric and prints the reconciliation. *)
let traced inst ~samples ~p50 ~spans_file =
  let batches = Array.length samples in
  Tracer.enabled := true;
  inst.sample ();
  inst.reset ();
  let traced = Array.make batches 0. in
  for j = 0 to batches - 1 do
    Tracer.run := j;
    let b0 = now () in
    ignore (span "batch.run" (fun () -> inst.batch j) : int);
    traced.(j) <- now () -. b0;
    Tracer.run := -1;
    inst.check j
  done;
  inst.report ();
  Tracer.enabled := false;
  (* The registry's per-operation counters need the hot gate, which
     slows the hot paths: read them on a separate pass over the first
     batches, per batch. *)
  let names =
    [ "sched.steps"; "sched.reads"; "sched.writes"; "net.sends"; "net.deliveries";
      "explore.nodes"; "chaos.runs"; "fleet.runs"; "harness.random_runs" ]
  in
  let counted = min batches counter_batches in
  inst.reset ();
  let before = List.map counter names in
  Obs.Metrics.hot := true;
  for j = 0 to counted - 1 do
    ignore (inst.batch j : int);
    inst.check j
  done;
  Obs.Metrics.hot := false;
  inst.reset ();
  List.iter2
    (fun name b ->
      let metric =
        "metrics." ^ String.map (fun c -> if c = '.' then '_' else c) name
      in
      set metric (ratio (fi (counter name - b)) (fi counted)))
    names before;
  let self = Tracer.self_by_layer () in
  List.iter
    (fun layer ->
      set ("self." ^ layer ^ "_s")
        (Option.value (Hashtbl.find_opt self layer) ~default:0.))
    span_layers;
  let untraced_total = Array.fold_left ( +. ) 0. (Array.map fst samples) in
  let self_total = Hashtbl.fold (fun _ v a -> a +. v) self 0. in
  let traced_total = Array.fold_left ( +. ) 0. traced in
  let estimated = Tracer.sum (fun s -> s.Tracer.run >= 0 && s.Tracer.estimated) in
  set "reconcile.ratio" (ratio self_total untraced_total);
  set "reconcile.estimated_share" (ratio estimated traced_total);
  set "obs.trace_overhead"
    (ratio (quantile (sorted (Array.to_list traced)) 0.5) p50);
  Printf.printf
    "traced: %d batches; layer self times sum to %.3f s vs untraced %.3f s \
     (ratio %.3f, tolerance +-%.0f%%: %s); %.0f%% of traced time is \
     sampled estimates\n"
    batches self_total untraced_total
    (ratio self_total untraced_total)
    (reconcile_tolerance *. 100.)
    (if Float.abs (ratio self_total untraced_total -. 1.) <= reconcile_tolerance
     then "reconciled" else "NOT reconciled")
    (100. *. ratio estimated traced_total);
  List.iter
    (fun layer ->
      Printf.printf "  self %-10s %9.4f s\n" layer
        (Option.value (Hashtbl.find_opt self layer) ~default:0.))
    span_layers;
  Option.iter Tracer.write spans_file

let run ~workload ~seed ~seconds ~trace ~spawned_at ~spans_file =
  let t_main = now () in
  let make = List.assoc workload workloads in
  (* set-up, several times: the median is reported *)
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let inst = make ~seed in
        (now () -. t0, inst))
  in
  let inst = snd (List.hd (List.rev setups)) in
  let startup = match spawned_at with Some t -> Float.max 0. (t_main -. t) | None -> 0. in
  let setup_s = startup +. quantile (sorted (List.map fst setups)) 0.5 in
  for w = 1 to inst.warmup do
    ignore (inst.batch (-w) : int);
    inst.check (-w)
  done;
  for _ = 1 to 3 do ignore (Calib.time () : float) done;
  (* the timed, untraced batches, each after one calibration kernel *)
  let samples = ref [] and kernel = ref [] in
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < seconds || not (inst.at_boundary ()) do
    kernel := Calib.time () :: !kernel;
    let b0 = now () in
    let work = inst.batch !i in
    let dt = match inst.own_time () with Some dt -> dt | None -> now () -. b0 in
    samples := (dt, work) :: !samples;
    inst.check !i;
    incr i
  done;
  let wall_s = now () -. t0 in
  let samples = Array.of_list (List.rev !samples) in
  let batches = Array.length samples in
  inst.finish ();
  let times = sorted (Array.to_list (Array.map fst samples)) in
  let rates = sorted (Array.to_list (Array.map (fun (dt, w) -> fi w /. dt) samples)) in
  let work_total = Array.fold_left (fun a (_, w) -> a + w) 0 samples in
  let p50 = quantile times 0.5 and p90 = quantile times 0.9 in
  let rate = quantile rates 0.5 in
  let kernel_s = quantile (sorted !kernel) 0.5 in
  let scale = Calib.reference_s /. kernel_s in
  let rss = Float.max (peak_rss_mb ()) !child_peak_mb in
  if trace then traced inst ~samples ~p50 ~spans_file;
  let fail_rate = ratio (fi (!failed + !known)) (fi (max 1 !attempted)) in
  set "fail_rate" fail_rate;
  set "batches" (fi batches);
  (* human-readable report *)
  let unit_ = inst.unit_name in
  Printf.printf "workload %s seed %d: %d timed batches, %d %s, ocaml %s\n"
    workload seed batches work_total unit_ Sys.ocaml_version;
  Printf.printf "  setup_s        %10.4f s     (median of %d set-ups + %.4f s process start)\n"
    setup_s setup_reps startup;
  Printf.printf "  wall_s         %10.3f s     (first batch to last)\n" wall_s;
  Printf.printf
    "  host kernel    %10.3f ms    (median of %d; times below are at the \
     %.1f ms reference, x%.3f; raw in brackets)\n"
    (kernel_s *. 1e3) batches (Calib.reference_s *. 1e3) scale;
  Printf.printf "  %-14s %10.1f %s/s  [%.1f; quartiles %.1f .. %.1f]\n"
    (unit_ ^ "_per_s") (rate /. scale) unit_ rate (quantile rates 0.25)
    (quantile rates 0.75);
  Printf.printf "  batch_p50_ms   %10.3f ms    [%.3f; quartiles %.3f .. %.3f; n=%d]\n"
    (p50 *. scale *. 1e3) (p50 *. 1e3) (quantile times 0.25 *. 1e3)
    (quantile times 0.75 *. 1e3) batches;
  Printf.printf "  batch_p90_ms   %10.3f ms    [%.3f; n=%d%s]\n" (p90 *. scale *. 1e3)
    (p90 *. 1e3) batches
    (if batches >= 100 then "" else "; fewer than 100 batches, p90 is thin");
  Printf.printf "  peak_rss_mb    %10.1f MB\n" rss;
  Printf.printf "  fail_rate      %10.6f       (%d of %d %s checks: %d pinned-output mismatches, %d known NONLINEARIZABLE sound runs)\n"
    fail_rate (!failed + !known) !attempted unit_ !failed !known;
  List.iter (Printf.printf "  MISMATCH %s\n") (List.rev !mismatches);
  let metrics =
    if trace then
      List.map
        (fun (name, unit_) ->
          (name, Option.value (Hashtbl.find_opt layer_values name) ~default:0., unit_))
        layer_metrics
    else
      [
        ("setup_s", setup_s, "s");
        ("work_per_s", rate /. scale, "1/s");
        ("batch_p50_ms", p50 *. scale *. 1e3, "ms");
        ("batch_p90_ms", p90 *. scale *. 1e3, "ms");
        ("peak_rss_mb", rss, "MB");
      ]
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", " (List.map json_metric metrics))

(* ------------------------------------------------------------------ *)
(* Pins                                                                *)

let print_pins () =
  let pr = Printf.printf in
  pr "(* Outputs the benchmark checks, printed by [perfbench.exe --pins]. *)\n\n";
  pr "let fleet_digests =\n  [|\n";
  for s = 1 to fleet_campaigns do
    rm_rf fleet_dir;
    let r = fleet_batch ~dir:fleet_dir ~seed:s ~estimate:(fun ~resumed:_ _ -> ()) in
    pr "    %S;\n" (hex (fleet_text r))
  done;
  rm_rf fleet_dir;
  pr "  |]\n\n";
  pr "let chaos_blocks =\n  [|\n";
  for b = 0 to chaos_blocks - 1 do
    pr "    %S;\n" (hex (chaos_text (chaos_campaigns b)))
  done;
  pr "  |]\n\n";
  let results =
    Array.map
      (fun p -> Array.map (fun v -> explore_pass p v) input_vectors)
      passes
  in
  pr "let explore_counts =\n  [|\n";
  Array.iter
    (fun per ->
      let (r : E.result), _ = per.(0) in
      pr "    (%d, %d);\n" r.E.stats.E.nodes r.E.stats.E.terminals)
    results;
  pr "  |]\n\nlet explore_digests =\n  [|\n";
  Array.iter
    (fun per ->
      pr "    [| %s |];\n"
        (String.concat "; "
           (Array.to_list (Array.map (fun (_, d) -> Printf.sprintf "0x%08x" d) per))))
    results;
  pr "  |]\n\nlet pipeline_seeds =\n  [|\n";
  (* one process per simulation, as in the workload: heaps are not
     reused across simulations *)
  Array.iter
    (fun (s, _) ->
      flush_all ();
      match Unix.fork () with
      | 0 ->
          let sim = pipe_start s in
          while snd (pipe_chunk sim) = None do () done;
          pr "    (%d, %d);\n%!" s (steps_per_proc sim.state);
          Unix._exit 0
      | pid -> ignore (Unix.waitpid [] pid : int * Unix.process_status))
    Pins.pipeline_seeds;
  pr "  |]\n"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spawned_at = ref None and spans_file = ref None and pins = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--spawned-at", Arg.Float (fun t -> spawned_at := Some t), "UNIX_TIME");
      ("--spans", Arg.String (fun f -> spans_file := Some f), "FILE");
      ("--pins", Arg.Set pins, " print pins.ml");
    ]
    (fun a -> raise (Arg.Bad a))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !pins then print_pins ()
  else if not (List.mem_assoc !workload workloads) then begin
    Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  end
  else
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~spawned_at:!spawned_at ~spans_file:!spans_file
