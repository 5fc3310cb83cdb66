(* Coverage-guided chaos fleet: corpus-backed, mutation-driven fault
   campaigns with deduplicated, shrunk, replayable witnesses.

   One fleet run is a sequence of *generations*. Each generation draws a
   batch of jobs — fresh seeded runs (under swarm-randomized fault
   feature mixes) and mutants/crossovers of corpus plans — executes the
   batch (optionally fanned over a domain pool), then folds the outcomes
   on the calling domain in batch-index order: coverage signals decide
   which executed plans join the corpus, and every NONLINEARIZABLE run is
   ddmin-shrunk, deduplicated by the class key of its shrunk plan, and
   recorded as a replayable witness. All randomness flows from
   generation-indexed splitmix streams and all folding is sequential in a
   deterministic order, so a fixed seed gives identical reports, corpora
   and witnesses at any jobs width. *)

module L = Check.Linearize

let m_runs = Obs.Metrics.counter "fleet.runs"
let m_violations = Obs.Metrics.counter "fleet.violations"
let m_witnesses = Obs.Metrics.counter "fleet.witnesses"
let m_signals = Obs.Metrics.counter "fleet.new_signals"
let m_mutant_signals = Obs.Metrics.counter "fleet.mutant_signals"
let m_generations = Obs.Metrics.counter "fleet.generations"
let m_cache_hits = Obs.Metrics.counter "fleet.cache_hits"
let g_corpus = Obs.Metrics.gauge "fleet.corpus_size"

(* ------------------------------------------------------------------ *)
(* Coverage signals                                                    *)

type signature = {
  terminal_hash : int;
  hop_mask : int;
  verdict_class : int;
  depth_bucket : int;
}

(* floor(log2 v) + 1: the power-of-two bucket of the run's event depth —
   "deeper interleavings" as a coarse monotone signal. *)
let depth_bucket_of v =
  let rec go b v = if v = 0 then b else go (b + 1) (v lsr 1) in
  go 0 v

let signature_of (o : Chaos.outcome) =
  let terminal_hash =
    (* The terminal state of a chaos run is its recorded history: hash
       every event through the explorer's Zobrist machinery so distinct
       interleaving outcomes get distinct names (no 10-node truncation). *)
    List.fold_left
      (fun h (e : int L.event) ->
        Sched.Zobrist.combine h
          (Sched.Zobrist.value_hash (e.L.proc, e.L.reg, e.L.op, e.L.inv, e.L.res)))
      0 o.Chaos.history
  in
  {
    terminal_hash;
    hop_mask = o.Chaos.hop_mask;
    verdict_class = (if Chaos.failed o then 1 else 0);
    depth_bucket = depth_bucket_of o.Chaos.events;
  }

type coverage = {
  terminals : (int, unit) Hashtbl.t;
  mutable hops : int;
  mutable verdicts : int;
  mutable depth : int;
}

let coverage_create () =
  { terminals = Hashtbl.create 256; hops = 0; verdicts = 0; depth = 0 }

(* Fold one signature into the accumulated coverage; [true] iff any
   observable signal moved — a new terminal-state hash, a hop-latency
   bucket never occupied before, a new verdict class, or a deeper
   event depth than any prior run. *)
let coverage_observe cov s =
  let new_hash = not (Hashtbl.mem cov.terminals s.terminal_hash) in
  if new_hash then Hashtbl.replace cov.terminals s.terminal_hash ();
  let new_hop = s.hop_mask land lnot cov.hops <> 0 in
  cov.hops <- cov.hops lor s.hop_mask;
  let vbit = 1 lsl s.verdict_class in
  let new_verdict = cov.verdicts land vbit = 0 in
  cov.verdicts <- cov.verdicts lor vbit;
  let new_depth = s.depth_bucket > cov.depth in
  if new_depth then cov.depth <- s.depth_bucket;
  new_hash || new_hop || new_verdict || new_depth

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)

(* The list-typed face of {!Faults.mutate}; campaigns mutate the packed
   form directly. *)
let mutate rng ~n ?churn plan =
  Faults.decompile (Faults.mutate rng ~n ?churn (Faults.compile ~n plan))

(* The exact identity of a shrunk plan: its action sequence with pids
   renamed by order of first appearance, so two minimal plans that
   differ only in which (symmetric) process they exercise canonicalize
   to the same key. *)
let plan_key plan =
  let names = Hashtbl.create 8 in
  let rename p =
    match Hashtbl.find_opt names p with
    | Some q -> q
    | None ->
        let q = Hashtbl.length names in
        Hashtbl.replace names p q;
        q
  in
  List.fold_left
    (fun h a ->
      let code =
        match a with
        | Faults.Deliver { src; dst } -> (0, rename src, rename dst)
        | Faults.Drop { src; dst } -> (1, rename src, rename dst)
        | Faults.Duplicate { src; dst } -> (2, rename src, rename dst)
        | Faults.Defer { src; dst } -> (3, rename src, rename dst)
        | Faults.Crash pid -> (4, rename pid, 0)
        | Faults.Enter pid -> (5, rename pid, 0)
        | Faults.Leave pid -> (6, rename pid, 0)
      in
      Sched.Zobrist.combine h (Sched.Zobrist.value_hash code))
    0 plan

(* Digit runs collapse to '#': "read by p1 over [2,6] returned 0" and
   "read by p2 over [3,7] returned 0" are the same failure shape. *)
let scrub s =
  let b = Buffer.create (String.length s) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !in_digits then Buffer.add_char b '#';
        in_digits := true
      end
      else begin
        in_digits := false;
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

(* The violation class: which register failed and the shape of the
   checker's explanation, with concrete pids, timestamps and values
   abstracted away. ddmin from different originals converges on
   different 1-minimal plans of the same underlying violation; keying
   the dedup on the failure shape (rather than the plan) is what makes
   the fleet report the frontier's stale-read class exactly once. *)
let violation_class ~reg ~reason =
  Sched.Zobrist.combine
    (Sched.Zobrist.combine 0 (Sched.Zobrist.value_hash reg))
    (Sched.Zobrist.value_hash (scrub reason))

(* ------------------------------------------------------------------ *)
(* Content-addressed run cache                                         *)

(* The identity of one run, by content. A fresh job is its (seed,
   profile, crash budget) — [Chaos.run_random] is a pure function of
   those plus the campaign config — and a scripted job is its compiled
   plan. Config fields beyond the swarm-rolled profile and crash budget
   are fixed for the life of a campaign, so they stay out of the key. *)
type cache_key =
  | K_fresh of { seed : int; profile : Faults.profile; crashes : int; h : int }
  | K_plan of { c : Faults.compiled; h : int }

(* Key hashes are computed once, at construction. [Hashtbl] re-hashes a
   key on every probe, so a stored hash turns repeated deep hashing of
   float-field profiles and opcode arrays into a field read; fresh keys
   additionally share one profile hash per generation ([phash]) since
   the swarm roll fixes the profile for the whole batch. *)
let fresh_key ~phash ~seed ~profile ~crashes =
  K_fresh
    {
      seed;
      profile;
      crashes;
      h =
        Sched.Zobrist.combine
          (Sched.Zobrist.combine (Sched.Zobrist.value_hash seed) phash)
          (Sched.Zobrist.value_hash crashes);
    }

let plan_cache_key c =
  K_plan { c; h = Sched.Zobrist.combine 1 (Faults.compiled_hash c) }

module Cache_tbl = Hashtbl.Make (struct
  type t = cache_key

  let equal a b =
    match (a, b) with
    | K_fresh a, K_fresh b ->
        a.h = b.h && a.seed = b.seed && a.crashes = b.crashes
        && a.profile = b.profile
    | K_plan a, K_plan b -> a.h = b.h && Faults.compiled_equal a.c b.c
    | K_fresh _, K_plan _ | K_plan _, K_fresh _ -> false

  let hash = function K_fresh { h; _ } -> h | K_plan { h; _ } -> h
end)

(* The cache holds keys only: a run is a pure function of its key, so a
   hit is re-executed, and an outcome never outlives its generation.
   Bounded so a long budget fleet cannot grow the table without limit;
   once full, new keys simply stop being recorded. *)
let cache_cap = 1 lsl 16

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)

type entry = { id : int; origin : string; plan : Faults.plan }

let corpus_line buf ~id ~origin cplan =
  Buffer.add_string buf "{\"id\":";
  Buffer.add_string buf (Int.to_string id);
  Buffer.add_string buf ",\"origin\":";
  Obs.Json.to_buffer buf (Obs.Json.Str origin);
  Buffer.add_string buf ",\"plan\":";
  Faults.add_compiled_json buf cplan;
  Buffer.add_char buf '}'

let entry_of_json j =
  match
    ( Obs.Json.member_int "id" j,
      Obs.Json.member_str "origin" j,
      Obs.Json.member "plan" j )
  with
  | Some id, Some origin, Some pj ->
      Result.map (fun plan -> { id; origin; plan }) (Faults.plan_of_json pj)
  | _ -> Error "corpus entry needs id, origin and plan fields"

let corpus_file dir = Filename.concat dir "corpus.jsonl"

(* [text] as the contents of [file], through a renamed [file.tmp]: a kill
   leaves a stray temporary, never a torn file. *)
let write_atomic file text =
  Out_channel.with_open_bin (file ^ ".tmp") (fun oc -> output_string oc text);
  Sys.rename (file ^ ".tmp") file

let rec end_of s p j stop =
  if p < j && not (stop s.[p]) then end_of s (p + 1) j stop else p

let skip lit s p j =
  let e = p + String.length lit in
  let rec same k =
    k = String.length lit || (s.[p + k] = lit.[k] && same (k + 1))
  in
  if p >= 0 && e <= j && same 0 then e else -1

(* [fast id origin plan] when [s.[i..j)] is exactly a line [corpus_line]
   prints, its origin free of escapes and its operands below [n]. *)
let scan_line ~n s i j fast =
  let a = skip "{\"id\":" s i j in
  let b = if a < 0 then a else end_of s a j (fun c -> c < '0' || c > '9') in
  let c = if b <= a || b - a > 18 then -1 else skip ",\"origin\":\"" s b j in
  let d = if c < 0 then c else end_of s c j (fun c -> c = '"' || c = '\\') in
  let e = if c < 0 then c else skip "\",\"plan\":" s d j in
  if e < 0 || s.[j - 1] <> '}' then None
  else
    Option.map
      (fast (int_of_string (String.sub s a (b - a))) (String.sub s c (d - c)))
      (Faults.scan_compiled_json ~n s e (j - 1))

let m_torn = Obs.Metrics.counter "fleet.corpus_torn_lines"

(* [<dir>/corpus.jsonl], oldest first: lines [scan_line] cannot take go
   through [Obs.Json] and [general], which decide all errors (numbered by
   line on disk). An unterminated last line that is not JSON is torn and
   dropped. Also returns the text the file must hold before the next
   append, if its tail is torn or lacks a newline. *)
let read_corpus ~n dir ~fast ~general =
  let file = corpus_file dir in
  let s =
    if Sys.file_exists file then
      In_channel.with_open_bin file In_channel.input_all
    else ""
  in
  let len = String.length s in
  let rec go lineno i acc =
    if i >= len then
      let ended = s = "" || s.[len - 1] = '\n' in
      Ok (List.rev acc, if ended then None else Some (s ^ "\n"))
    else
      let j = Option.value ~default:len (String.index_from_opt s i '\n') in
      match scan_line ~n s i j fast with
      | Some e -> go (lineno + 1) (j + 1) (e :: acc)
      | None -> (
          let line = String.sub s i (j - i) in
          match Obs.Json.of_string line with
          | _ when String.trim line = "" -> go (lineno + 1) (j + 1) acc
          | Error e when j = len ->
              Obs.Metrics.inc m_torn;
              Printf.eprintf
                "fleet: warning: %s:%d: torn final line ignored (%s)\n%!" file
                lineno e;
              Ok (List.rev acc, Some (String.sub s 0 i))
          | json -> (
              match Result.bind (Result.bind json entry_of_json) general with
              | Ok e -> go (lineno + 1) (j + 1) (e :: acc)
              | Error e -> Error (Printf.sprintf "%s:%d: %s" file lineno e)))
  in
  go 1 0 []

let load_corpus dir =
  Result.map fst
    (read_corpus ~n:256 dir ~general:Result.ok ~fast:(fun id origin c ->
         { id; origin; plan = Faults.decompile c }))

(* Oldest first, newest at [size - 1] — matching the JSONL on disk. A
   growable array, not a list: generation planning picks parents by
   index, and a 60 s fleet grows the corpus to tens of thousands of
   plans. Entries hold their plan compiled: a loaded line is compiled
   once and an executed run's recorded plan is stored as is. *)
type centry = { cid : int; corigin : string; cplan : Faults.compiled }

type corpus = {
  dir : string option;
  mutable arr : centry array;
  mutable size : int;
  mutable next_id : int;
  mutable added : int;  (** entries appended by this campaign *)
  oc : out_channel Lazy.t;  (** the campaign's append channel *)
  line : Buffer.t;
}

exception Corpus_error of string

(* A hand-edited operand outside the campaign's [n] slots fails here,
   positioned like a parse error, rather than in a later replay. *)
let corpus_open ~n dir =
  let loaded, repair =
    match dir with
    | None -> ([], None)
    | Some d -> (
        if not (Sys.file_exists d) then Sys.mkdir d 0o755;
        let general e =
          Result.map
            (fun () ->
              { cid = e.id; corigin = e.origin; cplan = Faults.compile ~n e.plan })
            (Faults.check ~n e.plan)
        in
        let fast cid corigin cplan = { cid; corigin; cplan } in
        match read_corpus ~n d ~fast ~general with
        | Error e -> raise (Corpus_error e)
        | Ok r -> r)
  in
  let arr = Array.of_list loaded in
  (* The first append opens the channel, once the file ends with its
     last good line. *)
  let open_channel file =
    Option.iter (write_atomic file) repair;
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 file
  in
  {
    dir;
    arr;
    size = Array.length arr;
    next_id = Array.fold_left (fun m e -> max m (e.cid + 1)) 0 arr;
    added = 0;
    oc = lazy (open_channel (corpus_file (Option.get dir)));
    line = Buffer.create 1024;
  }

(* One [flush] per line: a kill loses at most the line being written. *)
let corpus_add corpus ~origin cplan =
  let e = { cid = corpus.next_id; corigin = origin; cplan } in
  corpus.next_id <- corpus.next_id + 1;
  if corpus.size = Array.length corpus.arr then begin
    let grown = Array.make (max 64 (2 * Array.length corpus.arr)) e in
    Array.blit corpus.arr 0 grown 0 corpus.size;
    corpus.arr <- grown
  end;
  corpus.arr.(corpus.size) <- e;
  corpus.size <- corpus.size + 1;
  corpus.added <- corpus.added + 1;
  Obs.Metrics.set g_corpus corpus.size;
  if corpus.dir <> None then begin
    let oc = Lazy.force corpus.oc in
    Buffer.clear corpus.line;
    corpus_line corpus.line ~id:e.cid ~origin cplan;
    Buffer.add_char corpus.line '\n';
    Buffer.output_buffer oc corpus.line;
    flush oc
  end

(* Max of two uniform draws: biased toward the newest entries, where the
   coverage frontier is. *)
let corpus_pick rng corpus =
  let i = max (Bits.Rng.int rng corpus.size) (Bits.Rng.int rng corpus.size) in
  corpus.arr.(i)

(* ------------------------------------------------------------------ *)
(* Witnesses                                                           *)

type witness = {
  class_key : int;
  origin : string;
  found_gen : int;
  reg : int;
  file : string option;
  mutable plan : Faults.plan;  (** smallest shrunk plan seen for the class *)
  mutable plan_key : int;
  mutable deliveries : int;
  mutable events : int;
  mutable terminal_hash : int;
  mutable reason : string;
  mutable shrink_tests : int;
  mutable duplicates : int;
}

let config_to_json (c : Chaos.config) =
  Obs.Json.Obj
    ([
       ("n", Obs.Json.Int c.Chaos.n);
       ("t", Obs.Json.Int c.Chaos.t);
       ( "quorum",
         match c.Chaos.quorum with
         | Some q -> Obs.Json.Int q
         | None -> Obs.Json.Null );
       ("writes", Obs.Json.Int c.Chaos.writes);
       ("readers", Obs.Json.Int c.Chaos.readers);
       ("reads", Obs.Json.Int c.Chaos.reads);
       ("max_events", Obs.Json.Int c.Chaos.max_events);
     ]
    @
    (* Only dynamic-membership witnesses carry the extra object, so
       every witness file published before churn existed stays valid
       and byte-identical. *)
    match c.Chaos.membership with
    | None -> []
    | Some d ->
        [
          ( "membership",
            Obs.Json.Obj
              [
                ("seed_members", Obs.Json.Int d.Chaos.seed_members);
                ("churn_rate", Obs.Json.Int d.Chaos.churn_rate);
                ("churn_window", Obs.Json.Int d.Chaos.churn_window);
                ("churn_slack", Obs.Json.Int d.Chaos.churn_slack);
                ( "width_bits",
                  match d.Chaos.width_bits with
                  | Some b -> Obs.Json.Int b
                  | None -> Obs.Json.Null );
                ("joiner_reads", Obs.Json.Int d.Chaos.joiner_reads);
              ] );
        ])

let membership_of_json j =
  match
    ( Obs.Json.member_int "seed_members" j,
      Obs.Json.member_int "churn_rate" j,
      Obs.Json.member_int "churn_window" j,
      Obs.Json.member_int "churn_slack" j,
      Obs.Json.member_int "joiner_reads" j )
  with
  | ( Some seed_members,
      Some churn_rate,
      Some churn_window,
      Some churn_slack,
      Some joiner_reads ) ->
      Ok
        {
          Chaos.seed_members;
          churn_rate;
          churn_window;
          churn_slack;
          width_bits = Obs.Json.member_int "width_bits" j;
          joiner_reads;
        }
  | _ ->
      Error
        "witness membership needs seed_members, churn_rate, churn_window, \
         churn_slack, joiner_reads"

(* Witness replay is plan-driven — no dice are rolled — so the profile
   is irrelevant and the reliable profile stands in for it. *)
let config_of_json j =
  match
    ( Obs.Json.member_int "n" j,
      Obs.Json.member_int "t" j,
      Obs.Json.member_int "writes" j,
      Obs.Json.member_int "readers" j,
      Obs.Json.member_int "reads" j,
      Obs.Json.member_int "max_events" j )
  with
  | Some n, Some t, Some writes, Some readers, Some reads, Some max_events -> (
      let base =
        {
          Chaos.n;
          t;
          quorum = Obs.Json.member_int "quorum" j;
          writes;
          readers;
          reads;
          crashes = 0;
          profile = Faults.reliable;
          max_events;
          membership = None;
        }
      in
      match Obs.Json.member "membership" j with
      | None | Some Obs.Json.Null -> Ok base
      | Some mj ->
          Result.map
            (fun d -> { base with Chaos.membership = Some d })
            (membership_of_json mj))
  | _ -> Error "witness config needs n, t, writes, readers, reads, max_events"

let witness_to_json ~seed ~config w =
  Obs.Json.Obj
    [
      ("class", Obs.Json.Str (Printf.sprintf "%016x" w.class_key));
      ("plan_key", Obs.Json.Str (Printf.sprintf "%016x" w.plan_key));
      ("fleet_seed", Obs.Json.Int seed);
      ("found_gen", Obs.Json.Int w.found_gen);
      ("origin", Obs.Json.Str w.origin);
      ("config", config_to_json config);
      ("plan", Faults.plan_to_json w.plan);
      ("deliveries", Obs.Json.Int w.deliveries);
      ("events", Obs.Json.Int w.events);
      ("terminal_hash", Obs.Json.Int w.terminal_hash);
      ("reg", Obs.Json.Int w.reg);
      ("reason", Obs.Json.Str w.reason);
      ("shrink_tests", Obs.Json.Int w.shrink_tests);
    ]

let witness_file dir key = Filename.concat dir (Printf.sprintf "witness-%016x.json" key)

(* Witness classes already on disk: a fleet resumed over the same corpus
   dir reports only classes it has not published before. *)
let load_witness_classes dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         match Scanf.sscanf_opt f "witness-%16x.json" (fun k -> k) with
         | Some k when Filename.check_suffix f ".json" -> Some k
         | _ -> None)

type replay = {
  witness_plan : Faults.plan;
  config : Chaos.config;
  outcome : Chaos.outcome;
  stored_terminal_hash : int;
  stored_events : int;
  stored_deliveries : int;
  stored_reason : string;
  bit_for_bit : bool;
}

let replay_file file =
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "no such witness file: %s" file)
  else
    match
      Obs.Json.of_string
        (In_channel.with_open_text file In_channel.input_all)
    with
    | Error e -> Error (Printf.sprintf "%s: %s" file e)
    | Ok j -> (
        match
          ( Obs.Json.member "config" j,
            Obs.Json.member "plan" j,
            Obs.Json.member_int "terminal_hash" j,
            Obs.Json.member_int "events" j,
            Obs.Json.member_int "deliveries" j,
            Obs.Json.member_str "reason" j )
        with
        | Some cj, Some pj, Some th, Some ev, Some dl, Some reason -> (
            let decoded =
              let ( let* ) = Result.bind in
              let* config = config_of_json cj in
              let* config, _warnings = Chaos.validate config in
              let* plan = Faults.plan_of_json pj in
              let* () = Faults.check ~n:config.Chaos.n plan in
              Ok (config, plan)
            in
            match decoded with
            | Error e -> Error (Printf.sprintf "%s: %s" file e)
            | Ok (config, plan) ->
                let outcome =
                  Chaos.run_compiled config
                    (Faults.compile ~n:config.Chaos.n plan)
                in
                let sg = signature_of outcome in
                let fresh_reason =
                  match outcome.Chaos.verdict with
                  | L.Nonlinearizable { reason; _ } -> reason
                  | L.Linearizable _ -> ""
                in
                Ok
                  {
                    witness_plan = plan;
                    config;
                    outcome;
                    stored_terminal_hash = th;
                    stored_events = ev;
                    stored_deliveries = dl;
                    stored_reason = reason;
                    bit_for_bit =
                      Chaos.failed outcome
                      && sg.terminal_hash = th
                      && outcome.Chaos.events = ev
                      && outcome.Chaos.deliveries = dl
                      && fresh_reason = reason;
                  })
        | _ ->
            Error
              (Printf.sprintf
                 "%s: witness needs config, plan, terminal_hash, events, \
                  deliveries, reason"
                 file))

(* ------------------------------------------------------------------ *)
(* The fleet campaign                                                  *)

type job =
  | Fresh of { seed : int; profile : Faults.profile; crashes : int }
  | Mutant of { plan : Faults.compiled; origin : string }

let job_origin = function
  | Fresh { seed; _ } -> Printf.sprintf "seed:%d" seed
  | Mutant { origin; _ } -> origin

let job_key ~phash = function
  | Fresh { seed; profile; crashes } -> fresh_key ~phash ~seed ~profile ~crashes
  | Mutant { plan; _ } -> plan_cache_key plan

(* Swarm diversity: each generation runs under a random feature mix —
   every fault knob of the profile independently toggled and scaled, the
   crash budget independently switched. The draws happen in a fixed
   order whatever the toggles, so the stream stays aligned. *)
let swarm_roll rng (c : Chaos.config) =
  let p = c.Chaos.profile in
  let roll v =
    let on = Bits.Rng.bool rng in
    let f = 0.5 +. (1.5 *. Bits.Rng.float rng) in
    if on then Float.min 0.9 (v *. f) else 0.
  in
  let drop = roll p.Faults.drop in
  let duplicate = roll p.Faults.duplicate in
  let defer = roll p.Faults.defer in
  let delay = roll p.Faults.delay in
  let crashes = if Bits.Rng.bool rng then c.Chaos.crashes else 0 in
  ({ p with Faults.drop; duplicate; defer; delay }, crashes)

type report = {
  seed : int;
  generations : int;
  runs : int;
  violations : int;
  witnesses : witness list;  (** discovery order *)
  corpus_size : int;
  corpus_added : int;
  signals : int;
  mutant_signals : int;
  cache_lookups : int;
  cache_hits : int;
  distinct_terminals : int;
  hop_mask : int;
  verdict_mask : int;
  max_depth_bucket : int;
  degraded : bool;
  elapsed : float;
}

(* Generation-indexed randomness: every generation's stream is derived
   from (seed, generation) alone, never from wall time or pool
   scheduling, so a fleet is resumable and jobs-invariant. *)
let gen_rng seed g =
  Bits.Rng.make (Sched.Zobrist.combine (Sched.Zobrist.combine 0 seed) g)

let exec chaos = function
  | Fresh { seed; profile; crashes } ->
      Chaos.run_random ~seed { chaos with Chaos.profile; crashes }
  | Mutant { plan; _ } -> Chaos.run_compiled chaos plan

let campaign ?budget ?generations ?(jobs = 1) ?(batch = 16) ?corpus_dir ~seed
    chaos =
  (* Validated as [Chaos.campaign] validates: hard errors raise before
     anything runs, warnings print once per campaign. *)
  let chaos =
    match Chaos.validate chaos with
    | Error e -> invalid_arg ("Fleet.campaign: " ^ e)
    | Ok (chaos, warnings) ->
        List.iter (fun w -> Printf.eprintf "fleet: warning: %s\n%!" w) warnings;
        chaos
  in
  let generations =
    match (generations, budget) with
    | Some g, _ -> Some g
    | None, Some _ -> None
    | None, None -> Some 10
  in
  let corpus = corpus_open ~n:chaos.Chaos.n corpus_dir in
  Fun.protect ~finally:(fun () ->
      if Lazy.is_val corpus.oc then close_out_noerr (Lazy.force corpus.oc))
  @@ fun () ->
  Obs.Metrics.set g_corpus corpus.size;
  (* The campaign's run cache. Probes and fills happen only on the
     calling domain — before dispatch for batch jobs, inline for triage
     replays — so its contents, and hence every hit, are identical at
     any [jobs] width. [probe] counts one lookup and says whether it
     hit; a miss joins the cache while there is room. *)
  let cache = Cache_tbl.create 1024 in
  let cache_lookups = ref 0 in
  let cache_hits = ref 0 in
  let hit () =
    incr cache_hits;
    Obs.Metrics.inc m_cache_hits
  in
  let probe key =
    incr cache_lookups;
    let cached = Cache_tbl.mem cache key in
    if cached then hit ()
    else if Cache_tbl.length cache < cache_cap then Cache_tbl.add cache key ();
    cached
  in
  let run_keyed c =
    ignore (probe (plan_cache_key c) : bool);
    Chaos.run_compiled chaos c
  in
  let cov = coverage_create () in
  let witnesses = Hashtbl.create 8 in
  let witness_order = ref [] in
  (* Classes published by earlier fleets over this corpus stay
     deduplicated across invocations. *)
  (match corpus_dir with
  | None -> ()
  | Some d ->
      List.iter (fun k -> Hashtbl.replace witnesses k None)
        (load_witness_classes d));
  (* Re-execute the loaded corpus once, on the calling domain: coverage
     resumes where the previous campaign over this directory left off
     (instead of re-discovering — and re-appending — its own entries),
     and the run cache is pre-filled with every corpus plan's key, so
     mutants that reproduce a corpus entry count as hits. Fresh
     campaigns load nothing and skip this. *)
  for i = 0 to corpus.size - 1 do
    let o = run_keyed corpus.arr.(i).cplan in
    ignore (coverage_observe cov (signature_of o) : bool)
  done;
  let flight_mark = Obs.Recorder.mark () in
  Obs.Span.begin_ ~cat:"fleet"
    ~args:
      [
        ("seed", Obs.Json.Int seed);
        ("batch", Obs.Json.Int batch);
        ("jobs", Obs.Json.Int jobs);
        ("corpus", Obs.Json.Int corpus.size);
      ]
    "fleet.campaign";
  let monitor = Sched.Budget.arm (Sched.Budget.make ?deadline:budget ()) in
  let over_budget () =
    match budget with
    | None -> false
    | Some b -> Sched.Budget.elapsed monitor >= b
  in
  let runs = ref 0 in
  let violations = ref 0 in
  let signals = ref 0 in
  let mutant_signals = ref 0 in
  let gen = ref 0 in
  let degraded = ref false in
  let flight_dumped = ref false in
  (* Churn activity for the health instants, as campaign-relative deltas
     of the network's enter/leave counters. The counters are global and
     all runs have joined by the time a generation's health is sampled,
     so the deltas are identical at any [jobs]. *)
  let c_enters = Obs.Metrics.counter "net.enters" in
  let c_leaves = Obs.Metrics.counter "net.leaves" in
  let enters0 = Obs.Metrics.counter_value c_enters in
  let leaves0 = Obs.Metrics.counter_value c_leaves in
  let write_witness w =
    let text () = Obs.Json.to_string (witness_to_json ~seed ~config:chaos w) in
    Option.iter (fun f -> write_atomic f (text () ^ "\n")) w.file
  in
  (* Violations are pre-classed by the *original* verdict: digit
     scrubbing makes the class a template of the failure shape, so a
     duplicate run of an already-witnessed class is recognizable before
     any ddmin replay. In a violation-dense campaign (the frontier finds
     the same stale read dozens of times) shrinking every duplicate is
     the dominant cost of the whole fleet; skipping it is what
     fleet-frontier's work_per_s level check in scripts/perf_gate.py
     guards. A duplicate
     still re-enters the shrinker when its own run is already strictly
     smaller than the kept witness — ddmin only deletes actions, so only
     then can re-shrinking improve the published plan. *)
  let triage ~g ~origin (o : Chaos.outcome) =
    let skip_shrink =
      match o.Chaos.verdict with
      | L.Linearizable _ -> false
      | L.Nonlinearizable { reg; reason } -> (
          match Hashtbl.find_opt witnesses (violation_class ~reg ~reason) with
          | Some (Some w) when o.Chaos.deliveries >= w.deliveries ->
              w.duplicates <- w.duplicates + 1;
              true
          | Some None -> true
          | Some (Some _) | None -> false)
    in
    if skip_shrink then ()
    else begin
    let shrunk, shrink_tests = Chaos.shrink chaos (Faults.decompile o.Chaos.plan) in
    (* The shrunk replay's verdict names the class. Duplicate violating
       runs ddmin onto the same 1-minimal plan, and the confirmation
       replay hits. *)
    let compiled = Faults.compile ~n:chaos.Chaos.n shrunk in
    let replay = run_keyed compiled in
    let reg, reason =
      match replay.Chaos.verdict with
      | L.Nonlinearizable { reg; reason } -> (reg, reason)
      | L.Linearizable _ -> (-1, "shrunk plan no longer fails (flaky?)")
    in
    let key = violation_class ~reg ~reason in
    match Hashtbl.find_opt witnesses key with
    | Some (Some w) ->
        w.duplicates <- w.duplicates + 1;
        (* ddmin converges on different 1-minimal plans from different
           originals; keep (and republish) the smallest per class. *)
        if replay.Chaos.deliveries < w.deliveries then begin
          w.plan <- shrunk;
          w.plan_key <- plan_key shrunk;
          w.deliveries <- replay.Chaos.deliveries;
          w.events <- replay.Chaos.events;
          w.terminal_hash <- (signature_of replay).terminal_hash;
          w.reason <- reason;
          w.shrink_tests <- shrink_tests;
          write_witness w
        end
    | Some None -> ()  (* published by an earlier fleet over this corpus *)
    | None ->
        let w =
          {
            class_key = key;
            plan = shrunk;
            plan_key = plan_key shrunk;
            origin;
            found_gen = g;
            deliveries = replay.Chaos.deliveries;
            events = replay.Chaos.events;
            terminal_hash = (signature_of replay).terminal_hash;
            reg;
            reason;
            shrink_tests;
            file = Option.map (fun d -> witness_file d key) corpus.dir;
            duplicates = 0;
          }
        in
        write_witness w;
        Hashtbl.replace witnesses key (Some w);
        witness_order := w :: !witness_order;
        Obs.Metrics.inc m_witnesses;
        Obs.Span.instant ~cat:"fleet"
          ~args:
            [
              ("class", Obs.Json.Str (Printf.sprintf "%016x" key));
              ("deliveries", Obs.Json.Int w.deliveries);
              ("generation", Obs.Json.Int g);
            ]
          "fleet.witness";
        (* The shrunk witness joins the corpus: its mutants probe the
           boundary of the violation class. *)
        corpus_add corpus ~origin:(Printf.sprintf "witness:%016x" key) compiled
    end
  in
  let run_generation g =
    let rng = gen_rng seed g in
    let profile, crashes = swarm_roll rng chaos in
    let jobs_arr =
      Array.init batch (fun _ ->
          if corpus.size = 0 || Bits.Rng.float rng < 0.25 then
            Fresh { seed = Bits.Rng.int rng 0x3FFFFFFF; profile; crashes }
          else begin
            let parent = corpus_pick rng corpus in
            if corpus.size >= 2 && Bits.Rng.float rng < 0.2 then begin
              let other = corpus_pick rng corpus in
              Mutant
                {
                  plan = Faults.crossover rng parent.cplan other.cplan;
                  origin =
                    Printf.sprintf "xover:%d+%d@g%d" parent.cid other.cid g;
                }
            end
            else
              Mutant
                {
                  plan =
                    Faults.mutate rng ~n:chaos.Chaos.n
                      ~churn:(chaos.Chaos.membership <> None)
                      parent.cplan;
                  origin = Printf.sprintf "mut:%d@g%d" parent.cid g;
                }
          end)
    in
    (* Content-addressed dispatch: probe every job's key on the calling
       domain, collapse within-batch duplicates (a hit, cached or not),
       and hand the pool each distinct job once. Results are filled back
       in batch order, so campaign state after a generation is identical
       at any [jobs] width. *)
    let phash = Sched.Zobrist.value_hash profile in
    let slot = Array.make batch 0 in
    let distinct = ref [] in
    let count = ref 0 in
    let seen = Cache_tbl.create 32 in
    Array.iteri
      (fun i job ->
        let k = job_key ~phash job in
        let cached = probe k in
        match Cache_tbl.find_opt seen k with
        | Some j ->
            if not cached then hit ();
            slot.(i) <- j
        | None ->
            Cache_tbl.add seen k !count;
            slot.(i) <- !count;
            incr count;
            distinct := job :: !distinct)
      jobs_arr;
    let units = Array.of_list (List.rev !distinct) in
    let fresh = Array.make (Array.length units) None in
    Sched.Par.run_units ~jobs ~units (exec chaos) (fun j o ->
        fresh.(j) <- Some o);
    let outcomes = Array.map (fun j -> Option.get fresh.(j)) slot in
    let gen_signals = ref 0 in
    Array.iteri
      (fun i o ->
        incr runs;
        Obs.Metrics.inc m_runs;
        (* One instant per run, always constructed: in a trace it maps
           runs to origins and verdicts; in a flight dump it is the
           replay handle for the last runs before death. *)
        Obs.Span.instant ~cat:"fleet"
          ~args:
            [
              ("generation", Obs.Json.Int g);
              ("index", Obs.Json.Int i);
              ("origin", Obs.Json.Str (job_origin jobs_arr.(i)));
              ( "verdict",
                Obs.Json.Str
                  (if Chaos.failed o then "nonlinearizable"
                   else "linearizable") );
              ("events", Obs.Json.Int o.Chaos.events);
            ]
          "fleet.run";
        let interesting = coverage_observe cov (signature_of o) in
        if interesting then begin
          incr signals;
          incr gen_signals;
          Obs.Metrics.inc m_signals;
          (match jobs_arr.(i) with
          | Mutant _ ->
              incr mutant_signals;
              Obs.Metrics.inc m_mutant_signals
          | Fresh _ -> ());
          (* The *executed* plan joins the corpus: for mutants that is
             the effective action sequence (no-ops already dropped), so
             corpus plans stay tight and replayable. *)
          corpus_add corpus ~origin:(job_origin jobs_arr.(i)) o.Chaos.plan
        end;
        if Chaos.failed o then begin
          incr violations;
          Obs.Metrics.inc m_violations;
          triage ~g ~origin:(job_origin jobs_arr.(i)) o;
          if not !flight_dumped then begin
            (* First violating run of the campaign: dump this campaign's
               events once, after triage, so the dump carries the
               fleet.run replay handle and the witness class. *)
            flight_dumped := true;
            ignore
              (Obs.Recorder.dump ?dir:corpus_dir ~since:flight_mark
                 ~reason:"nonlinearizable" ()
                : string option)
          end
        end)
      outcomes;
    Obs.Metrics.inc m_generations;
    Obs.Span.instant ~cat:"fleet"
      ~args:
        [
          ("generation", Obs.Json.Int g);
          ("new_signals", Obs.Json.Int !gen_signals);
          ("corpus", Obs.Json.Int corpus.size);
        ]
      "fleet.generation";
    (* The deterministic health sample: cumulative campaign state, plus
       wall-derived rate and budget ETA only when the user opted into
       wall time (rates would otherwise break trace byte-determinism). *)
    Obs.Span.instant ~cat:"fleet"
      ~args:
        ([
          ("generation", Obs.Json.Int g);
          ("runs", Obs.Json.Int !runs);
          ("violations", Obs.Json.Int !violations);
          ("witnesses", Obs.Json.Int (List.length !witness_order));
          ("corpus", Obs.Json.Int corpus.size);
          ("signals", Obs.Json.Int !signals);
          ("new_signals", Obs.Json.Int !gen_signals);
          ( "enters",
            Obs.Json.Int (Obs.Metrics.counter_value c_enters - enters0) );
          ( "leaves",
            Obs.Json.Int (Obs.Metrics.counter_value c_leaves - leaves0) );
        ]
        @
        if not (Obs.Span.wall_enabled ()) then []
        else
          let dt = Sched.Budget.elapsed monitor in
          [ ("elapsed_s", Obs.Json.Float dt) ]
          @ (if dt > 0. then
               [
                 ( "runs_per_s",
                   Obs.Json.Float (float_of_int !runs /. dt) );
               ]
             else [])
          @
          match budget with
          | Some b -> [ ("eta_s", Obs.Json.Float (Float.max 0. (b -. dt))) ]
          | None -> [])
      "fleet.health"
  in
  (try
     let continue () =
       match generations with
       | Some g when !gen >= g -> false
       | _ ->
           if over_budget () then begin
             if generations <> None then degraded := true;
             raise Exit
           end;
           true
     in
     while continue () do
       run_generation !gen;
       incr gen
     done
   with Exit -> ());
  let witnesses_found = List.rev !witness_order in
  Obs.Span.end_ ~cat:"fleet"
    ~args:
      [
        ("generations", Obs.Json.Int !gen);
        ("runs", Obs.Json.Int !runs);
        ("violations", Obs.Json.Int !violations);
        ("witnesses", Obs.Json.Int (List.length witnesses_found));
        ("new_signals", Obs.Json.Int !signals);
      ]
    "fleet.campaign";
  {
    seed;
    generations = !gen;
    runs = !runs;
    violations = !violations;
    witnesses = witnesses_found;
    corpus_size = corpus.size;
    corpus_added = corpus.added;
    signals = !signals;
    mutant_signals = !mutant_signals;
    cache_lookups = !cache_lookups;
    cache_hits = !cache_hits;
    distinct_terminals = Hashtbl.length cov.terminals;
    hop_mask = cov.hops;
    verdict_mask = cov.verdicts;
    max_depth_bucket = cov.depth;
    degraded = !degraded;
    elapsed = Sched.Budget.elapsed monitor;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)

let pp_witness ppf w =
  Format.fprintf ppf
    "class %016x (gen %d, via %s): %d deliveries, %d events, reg %d — %s@ \
     (%d shrink replays, %d duplicate run(s) deduplicated%s)"
    w.class_key w.found_gen w.origin w.deliveries w.events w.reg w.reason
    w.shrink_tests w.duplicates
    (match w.file with Some f -> "; " ^ f | None -> "")

(* Deliberately excludes [elapsed]: everything printed here is
   byte-deterministic for a fixed seed and generation count, at any jobs
   width — the property check.sh diffs. *)
let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fleet seed %d: %d generation(s), %d runs, %d violating run(s)%s@ \
     coverage: %d distinct terminal states, hop-mask %#x, verdict-mask %#x, \
     depth<=2^%d@ corpus: %d plan(s) (%d added)@ cache: %d hit(s) over %d \
     lookup(s)@ witnesses: %d class(es)"
    r.seed r.generations r.runs r.violations
    (if r.degraded then " (budget: stopped early)" else "")
    r.distinct_terminals r.hop_mask r.verdict_mask r.max_depth_bucket
    r.corpus_size r.corpus_added r.cache_hits r.cache_lookups
    (List.length r.witnesses);
  List.iter
    (fun w -> Format.fprintf ppf "@   @[<hov>%a@]" pp_witness w)
    r.witnesses;
  Format.fprintf ppf "@]"
