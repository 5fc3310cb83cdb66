module L = Check.Linearize

let m_runs = Obs.Metrics.counter "chaos.runs"
let m_violations = Obs.Metrics.counter "chaos.violations"

type dyn = {
  seed_members : int;
  churn_rate : int;
  churn_window : int;
  churn_slack : int;
  width_bits : int option;
  joiner_reads : int;
}

type config = {
  n : int;
  t : int;
  quorum : int option;
  writes : int;
  readers : int;
  reads : int;
  crashes : int;
  profile : Faults.profile;
  max_events : int;
  membership : dyn option;
}

let default_profile =
  {
    Faults.reliable with
    drop = 0.08;
    duplicate = 0.06;
    defer = 0.12;
    delay = 0.05;
    delay_span = 12;
    max_channel_drops = 4;
  }

let sound ?(n = 4) ?(t = 1) () =
  {
    n;
    t;
    quorum = None;
    writes = 2;
    readers = 2;
    reads = 3;
    crashes = t;
    profile = default_profile;
    max_events = 4_000;
    membership = None;
  }

let frontier ?(n = 4) () =
  {
    n;
    t = 0;
    quorum = Some (n / 2);
    writes = 2;
    readers = 2;
    reads = 4;
    crashes = 0;
    (* Disjoint quorums only misbehave when a write settles in one half
       while reads are served entirely by the other. Long delay bursts and
       aggressive reordering manufacture that partition; loss stays modest
       and per-channel bounded so operations still complete — a dead
       channel stalls the protocol instead of staling it. (Profile chosen
       by sweep: ~3.5% violation rate over seeds 1..200, minimal shrunk
       witnesses under 20 deliveries.) *)
    profile =
      {
        default_profile with
        drop = 0.10;
        defer = 0.3;
        delay = 0.25;
        delay_span = 40;
        max_channel_drops = 4;
      };
    max_events = 4_000;
    membership = None;
  }

(* Below-bound churn: one join-or-leave per 60-event window, quorums
   widened by exactly that rate. The writer and one reader churn among
   the seed members; the remaining slots are late joiners that run their
   read scripts after activating. No crashes — churn and crashes are
   separate budgets, and this preset isolates the churn axis. *)
let churn ?(n = 8) ?(seed_members = 5) ?(rate = 1) ?(window = 60) ?slack
    ?width_bits () =
  {
    n;
    t = 0;
    quorum = None;
    writes = 2;
    readers = 2;
    reads = 3;
    crashes = 0;
    profile = default_profile;
    max_events = 4_000;
    membership =
      Some
        {
          seed_members;
          churn_rate = rate;
          churn_window = window;
          churn_slack = Option.value slack ~default:rate;
          width_bits;
          joiner_reads = 2;
        };
  }

(* Above-bound churn with unwidened quorums: departures are rapid-fire
   (spacing ~2 events) while slack 0 sizes quorums as plain majorities
   of whatever view each node has — a write acknowledged partly by
   members about to leave can then be invisible to a read majority of
   the survivors. Delay bursts and reordering (the static frontier's
   mix) stretch the window in which the two quorums miss each other.
   The small seed group (4 of 8) maximizes how much of the write quorum
   the leavers can take with them. *)
let churn_frontier ?(n = 8) ?(seed_members = 4) () =
  let base = frontier ~n () in
  {
    base with
    quorum = None;
    membership =
      Some
        {
          seed_members;
          churn_rate = 6;
          churn_window = 12;
          churn_slack = 0;
          width_bits = None;
          joiner_reads = 2;
        };
  }

(* ------------------------------------------------------------------ *)
(* Config validation *)

(* A static fleet speaks {!Pack}ed messages, so its scripts must fit the
   packed layout (per-pid op ids up to [max writes reads], timestamps and
   values up to [writes]) and its quorum must be sized for [t < n/2]
   unless overridden. *)
let static_error config =
  if
    not
      (Pack.fits_static ~registers:config.n ~writes:config.writes
         ~max_ops:(max config.writes config.reads))
  then
    Some
      (Printf.sprintf
         "writes %d / reads %d outside the packed message layout (at most %d \
          writes and %d operations per process)"
         config.writes config.reads Pack.max_ts Pack.max_op)
  else if config.quorum = None && 2 * config.t >= config.n then
    Some
      (Printf.sprintf
         "t = %d needs t < n/2 (n = %d) for quorums of n - t to intersect; \
          set quorum to override"
         config.t config.n)
  else None

(* Soft problem: more crashes than the tolerance the quorum was sized
   for. The campaign would silently clamp at the crash roll; clamp loudly
   here instead. *)
let clamp_crashes config =
  if config.crashes > config.t then
    Ok
      ( { config with crashes = config.t },
        [
          Printf.sprintf
            "crashes %d exceeds fault tolerance t = %d: clamped to %d (a \
             quorum of n - t survives at most t crashes)"
            config.crashes config.t config.t;
        ] )
  else Ok (config, [])

let validate config =
  let err fmt = Printf.ksprintf (fun e -> Error e) fmt in
  if config.n <= 0 then err "n must be positive (got %d)" config.n
  else if config.n > 61 then
    err "n %d exceeds 61 (the network keeps membership in one-word bitsets)"
      config.n
  else if config.t < 0 then err "t must be non-negative (got %d)" config.t
  else if config.writes < 0 || config.readers < 0 || config.reads < 0 then
    err "writes, readers and reads must be non-negative (got %d, %d, %d)"
      config.writes config.readers config.reads
  else
    match config.quorum with
    | Some q when q < 1 || q > config.n ->
        err "quorum %d outside 1..n (n = %d): unsatisfiable or vacuous" q
          config.n
    | _ -> (
        match config.membership with
        | Some d when d.seed_members < 1 || d.seed_members > config.n ->
            err "seed_members %d outside 1..n (n = %d)" d.seed_members config.n
        | Some d when d.churn_rate < 0 ->
            err "churn_rate must be non-negative (got %d)" d.churn_rate
        | Some d when d.churn_window < 1 ->
            err "churn_window must be positive (got %d)" d.churn_window
        | Some d when d.churn_slack < 0 ->
            err "churn_slack must be non-negative (got %d)" d.churn_slack
        | Some { width_bits = Some b; _ } when b < 1 || b > 30 ->
            err "width_bits %d outside 1..30" b
        | Some d when d.joiner_reads < 0 ->
            err "joiner_reads must be non-negative (got %d)" d.joiner_reads
        | Some _ -> clamp_crashes config
        | None -> (
            match static_error config with
            | Some e -> Error e
            | None -> clamp_crashes config))

type rng_point = {
  rng_state : int64;
  crash_at : (int * int) list;
  churn : Membership.churn;
}

type outcome = {
  verdict : int L.verdict;
  history : int L.event list;
  plan : Faults.compiled;
  events : int;
  deliveries : int;
  completed : int;
  hop_mask : int;
  rng_point : rng_point option;
}

let violates = function L.Nonlinearizable _ -> true | L.Linearizable _ -> false
let failed o = violates o.verdict

(* ------------------------------------------------------------------ *)
(* The client recorder, shared by both fleets.

   Pid 0 writes values [1..writes] to register 0; every other pid runs
   [reads pid] sequential reads of it. Invocations and responses are
   stamped on one logical clock — every inv/res gets a fresh stamp, so
   the recorded real-time order is exactly the callback order of the
   simulation — and completed operations land in growable int columns,
   in completion order: (proc, write?, value, inv stamp, res stamp). The
   pool rewinds the recorder with [rec_reset] instead of rebuilding
   it. *)

type recorder = {
  r_writes : int;
  r_reads : int array;  (** per pid: the script's read count *)
  reads_left : int array;
  mutable writes_started : int;
  pend_inv : int array;  (** per pid: pending op's inv stamp, -1 none *)
  pend_kind : int array;  (** 0 pending read, v >= 1 pending write of v *)
  mutable stamp : int;
  mutable h_len : int;
  mutable h_proc : int array;
  mutable h_wr : int array;
  mutable h_val : int array;
  mutable h_inv : int array;
  mutable h_res : int array;
}

let recorder ~n ~writes ~reads =
  let reads = Array.init n reads in
  {
    r_writes = writes;
    r_reads = reads;
    reads_left = Array.copy reads;
    writes_started = 0;
    pend_inv = Array.make n (-1);
    pend_kind = Array.make n (-1);
    stamp = 0;
    h_len = 0;
    h_proc = Array.make 64 0;
    h_wr = Array.make 64 0;
    h_val = Array.make 64 0;
    h_inv = Array.make 64 0;
    h_res = Array.make 64 0;
  }

let rec_reset r =
  Array.blit r.r_reads 0 r.reads_left 0 (Array.length r.r_reads);
  r.writes_started <- 0;
  Array.fill r.pend_inv 0 (Array.length r.pend_inv) (-1);
  Array.fill r.pend_kind 0 (Array.length r.pend_kind) (-1);
  r.stamp <- 0;
  r.h_len <- 0

(* Invoke [me]'s next script operation: [v >= 1] to write [v], [0] to
   read, [-1] when the script is exhausted. *)
let rec_next r me =
  let kind =
    if me = 0 then
      if r.writes_started < r.r_writes then begin
        r.writes_started <- r.writes_started + 1;
        r.writes_started
      end
      else -1
    else if r.reads_left.(me) > 0 then begin
      r.reads_left.(me) <- r.reads_left.(me) - 1;
      0
    end
    else -1
  in
  if kind >= 0 then begin
    r.stamp <- r.stamp + 1;
    r.pend_inv.(me) <- r.stamp;
    r.pend_kind.(me) <- kind
  end;
  kind

let hist_grow r =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 r.h_len;
    b
  in
  r.h_proc <- g r.h_proc;
  r.h_wr <- g r.h_wr;
  r.h_val <- g r.h_val;
  r.h_inv <- g r.h_inv;
  r.h_res <- g r.h_res

(* [me]'s pending operation responded; [value] is what a read returned
   (a write records its own value). *)
let rec_complete r me value =
  let inv = r.pend_inv.(me) in
  if inv >= 0 then begin
    let kind = r.pend_kind.(me) in
    r.pend_inv.(me) <- -1;
    r.pend_kind.(me) <- -1;
    r.stamp <- r.stamp + 1;
    if r.h_len = Array.length r.h_proc then hist_grow r;
    let i = r.h_len in
    r.h_proc.(i) <- me;
    r.h_wr.(i) <- (if kind >= 1 then 1 else 0);
    r.h_val.(i) <- (if kind >= 1 then kind else value);
    r.h_inv.(i) <- inv;
    r.h_res.(i) <- r.stamp;
    r.h_len <- i + 1
  end

(* The history: completed operations in completion order, then the
   pending ones, by ascending pid (the static fleet) or descending (the
   dynamic one). Both orders are pinned: the checker tries candidates in
   event order, so the order shapes published witnesses. *)
let rec_finalize r ~ascending =
  let n = Array.length r.pend_inv in
  let tail = ref [] in
  for i = 0 to n - 1 do
    let me = if ascending then n - 1 - i else i in
    let inv = r.pend_inv.(me) in
    if inv >= 0 then begin
      let kind = r.pend_kind.(me) in
      let op = if kind >= 1 then L.Write kind else L.Read 0 in
      tail := { L.proc = me; reg = 0; op; inv; res = None } :: !tail
    end
  done;
  let rec go i acc =
    if i < 0 then acc
    else
      let op =
        if r.h_wr.(i) = 1 then L.Write r.h_val.(i) else L.Read r.h_val.(i)
      in
      go (i - 1)
        ({ L.proc = r.h_proc.(i); reg = 0; op; inv = r.h_inv.(i);
           res = Some r.h_res.(i) }
        :: acc)
  in
  go (r.h_len - 1) !tail

(* ------------------------------------------------------------------ *)
(* The fleets. Both are push-mode peers over the arena network, pooled
   per domain: a run [reset]s an instance (rewind the peers and the
   recorder, clear the network, re-run the start scripts) rather than
   rebuilding it, so the steady-state cost of a chaos run is the fault
   loop itself. The network is created with every slot absent, so no
   start script runs before the first reset and the first run on a
   domain counts the same sends as every other. A handler's replies go
   out before the next script operation its completion starts. The two
   fleets speak different message types; the drivers only ever run the
   fault layer and call the finalizer, so the type packs away. *)

type prepared = Prepared : 'm Faults.t * (unit -> int L.event list) -> prepared
type instance = { reset : unit -> unit; prepared : prepared }

let instance ~n ~present ~nodes ~reset_nodes r ~ascending =
  let net = Net.create ~present:(fun _ -> false) ~n ~nodes () in
  let ft = Faults.wrap net in
  {
    reset =
      (fun () ->
        reset_nodes ();
        rec_reset r;
        Faults.reset ft;
        Net.reset ~present net);
    prepared = Prepared (ft, fun () -> rec_finalize r ~ascending);
  }

(* The static fleet: one {!Abd} per pid speaking {!Pack}ed int messages,
   so a run's send/deliver path allocates nothing. *)
let static_create config =
  Option.iter (fun e -> invalid_arg ("Chaos: " ^ e)) (static_error config);
  let n = config.n in
  let r =
    recorder ~n ~writes:config.writes ~reads:(fun me ->
        if me >= 1 && me <= config.readers then config.reads else 0)
  in
  let abds = ref [] in
  let nodes ~send me =
    let abd =
      Abd.create ~n ~t:config.t ?quorum:config.quorum ~registers:n
        ~init:(fun _ -> 0) ~encoding:Pack.encoding ~send ()
    in
    abds := abd :: !abds;
    let start () =
      let op = rec_next r me in
      if op >= 1 then Abd.begin_write abd ~reg:0 op
      else if op = 0 then Abd.begin_read abd ~reg:0
    in
    let message ~from m =
      if Abd.handle abd ~from m then begin
        rec_complete r me (Abd.result abd);
        start ()
      end
    in
    { Net.on_start = start; on_message = message; on_leave = ignore }
  in
  instance ~n ~present:(fun _ -> true) ~nodes
    ~reset_nodes:(fun () -> List.iter Abd.reset !abds)
    r ~ascending:true

(* The dynamic fleet: Dynreg peers over a churning membership. Slots
   [0 .. seed_members - 1] are seeded (writer 0, readers 1..); the rest
   are late joiners whose read scripts start on [Activated]. A leaver's
   pending operation stays pending — finalize records it incomplete, and
   the checker treats it as may-or-may-not have taken effect, which is
   exactly the semantics of departing mid-operation. *)
let dyn_create config dyn =
  let n = config.n in
  let initial = Membership.initial dyn.seed_members in
  let r =
    recorder ~n ~writes:config.writes ~reads:(fun me ->
        if me = 0 then 0
        else if me >= dyn.seed_members then dyn.joiner_reads
        else if me <= config.readers then config.reads
        else 0)
  in
  let regs = ref [] in
  let nodes ~send me =
    let reg =
      Dynreg.create ~n ~me ~slack:dyn.churn_slack ?width_bits:dyn.width_bits
        ~registers:1
        ~init:(fun _ -> 0)
        ~initial ~send ()
    in
    regs := reg :: !regs;
    let start_next () =
      let op = rec_next r me in
      if op >= 1 then Dynreg.begin_write reg ~reg:0 op
      else if op = 0 then Dynreg.begin_read reg ~reg:0
    in
    let start () =
      Dynreg.start reg;
      if Dynreg.is_active reg then start_next ()
    in
    let message ~from m =
      Dynreg.handle reg ~from m;
      match Dynreg.take_completion reg with
      | None -> ()
      | Some Dynreg.Activated -> start_next ()
      | Some c ->
          rec_complete r me
            (match c with
            | Dynreg.Read_value v -> v
            | Dynreg.Wrote | Dynreg.Activated -> 0);
          start_next ()
    in
    let leave () = Dynreg.farewell reg in
    { Net.on_start = start; on_message = message; on_leave = leave }
  in
  instance ~n
    ~present:(fun pid -> pid < dyn.seed_members)
    ~nodes
    ~reset_nodes:(fun () -> List.iter Dynreg.reset !regs)
    r ~ascending:false

(* One pool per domain, serving both fleets: campaign workers each grow
   their own in domain-local storage. The key holds exactly the fields
   an instance reads — the network shape and scripts, plus, for a
   dynamic fleet, the seed group, slack, width and joiner scripts — so
   configs that differ only in how a run is driven (fault profile,
   crash budget, churn rate and window, which only the rng roll reads)
   share one instance, and the key hashes in a few int ops. Every
   driver below funnels through [pooled]. *)
let pool = Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let pooled config =
  let tbl = Domain.DLS.get pool in
  let key =
    ( config.n, config.t, config.quorum, config.writes, config.readers,
      config.reads,
      Option.map
        (fun d -> (d.seed_members, d.churn_slack, d.width_bits, d.joiner_reads))
        config.membership )
  in
  let p =
    match Hashtbl.find_opt tbl key with
    | Some p -> p
    | None ->
        let p =
          match config.membership with
          | None -> static_create config
          | Some dyn -> dyn_create config dyn
        in
        Hashtbl.add tbl key p;
        p
  in
  p

let prepare config =
  let p = pooled config in
  p.reset ();
  p.prepared

let check history =
  L.check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal history

let outcome_of ?rng_point ft finalize =
  let history = finalize () in
  let plan = Faults.compiled_plan ft in
  {
    verdict = check history;
    history;
    plan;
    events = Faults.events ft;
    deliveries = Faults.compiled_deliveries plan;
    completed =
      List.fold_left
        (fun k (e : int L.event) -> if e.res <> None then k + 1 else k)
        0 history;
    hop_mask = Net.hop_mask (Faults.net ft);
    rng_point;
  }

let random_crashes rng config =
  let how_many =
    Bits.Rng.int rng (min config.crashes config.t + 1)
  in
  let pids = Array.init config.n (fun i -> i) in
  Bits.Rng.shuffle rng pids;
  List.init how_many (fun i ->
      (pids.(i), Bits.Rng.int rng (max 1 (config.max_events / 4))))

(* The α-bounded churn roll. Joiners are the unseeded slots, in pid
   order; leavers are seed members other than the writer (pid 0 keeps
   the write script alive — a departed writer would make most runs
   trivially linearizable). Static configs draw nothing, so their rng
   stream — and every published seed — is untouched. *)
let random_churn rng config =
  match config.membership with
  | None -> Membership.no_churn
  | Some d ->
      Membership.random rng
        ~joiners:
          (List.init (config.n - d.seed_members) (fun i -> d.seed_members + i))
        ~leavers:(List.init (d.seed_members - 1) (fun i -> i + 1))
        ~rate:d.churn_rate ~window:d.churn_window
        ~span:(max 1 (config.max_events / 4))

(* The replay point is taken after the crash and churn patterns have
   been rolled: resuming from it re-runs exactly the fault-injection
   loop, without re-rolling the schedule-derivation prefix of the
   stream. *)
let run_at point config =
  let rng = Bits.Rng.of_state point.rng_state in
  let profile =
    {
      config.profile with
      crash_at = config.profile.crash_at @ point.crash_at;
      enter_at = config.profile.enter_at @ point.churn.Membership.enter_at;
      leave_at = config.profile.leave_at @ point.churn.Membership.leave_at;
    }
  in
  let (Prepared (ft, finalize)) = prepare config in
  Faults.run_random ~rng ~profile ~max_events:config.max_events ft;
  outcome_of ~rng_point:point ft finalize

let run_random ~seed config =
  let rng = Bits.Rng.make seed in
  let crash_at = random_crashes rng config in
  let churn = random_churn rng config in
  run_at { rng_state = Bits.Rng.state rng; crash_at; churn } config

let run_compiled config compiled =
  let (Prepared (ft, finalize)) = prepare config in
  Faults.replay_compiled ft compiled;
  outcome_of ft finalize

let run_plan config plan =
  (* Compiling first both validates the (possibly hand-edited) plan's
     operands against the universe size and turns the replay into a
     dense int-array walk — the form every shrink probe and corpus
     mutant re-execution takes. *)
  run_compiled config (Faults.compile ~n:config.n plan)

(* Shrink probes on the compiled plan's sub-arrays. A probe asks only
   whether the candidate still fails, so it skips every outcome field but
   the verdict; a candidate ddmin already tried is answered from the memo
   — it counts as a probe, but does not replay. A key carries its hash;
   the memo has room for the 1-2k probes of a usual shrink. *)
type probe = { h : int; c : Faults.compiled }

module Probes = Hashtbl.Make (struct
  type t = probe

  let hash k = k.h
  let equal a b = a.h = b.h && Faults.compiled_equal a.c b.c
end)

let shrink config plan =
  let memo = Probes.create 1024 in
  let p = pooled config in
  let test c =
    let key = { h = Faults.compiled_hash c; c } in
    match Probes.find_opt memo key with
    | Some fails -> fails
    | None ->
        p.reset ();
        let (Prepared (ft, finalize)) = p.prepared in
        Faults.replay_compiled ft c;
        let fails = violates (check (finalize ())) in
        Probes.add memo key fails;
        fails
  in
  let shrunk, tests =
    Check.Shrink.minimize_count ~test (Faults.compile ~n:config.n plan)
  in
  (Faults.decompile shrunk, tests)

type found = {
  seed : int;
  original : outcome;
  shrunk : Faults.plan;
  shrunk_outcome : outcome;
  shrink_tests : int;
}

type campaign = {
  runs : int;
  requested : int;
  degraded : bool;
  violations : int;
  total_events : int;
  total_completed : int;
  first : found option;
}

let campaign ?deadline ?(jobs = 1) ~seed ~runs config =
  (* Construction-time validation: hard errors raise here rather than
     letting an unsatisfiable quorum silently run; soft problems (more
     crashes than t) clamp with a warning — printed once per campaign,
     not per run, so ddmin's replay storm stays quiet. *)
  let config =
    match validate config with
    | Error e -> invalid_arg (Printf.sprintf "Chaos.campaign: %s" e)
    | Ok (config, warnings) ->
        List.iter
          (fun w -> Printf.eprintf "chaos: warning: %s\n%!" w)
          warnings;
        config
  in
  (* The campaign span carries the resolved seed: a violation reported
     from a trace is replayable without the console output. *)
  let flight_mark = Obs.Recorder.mark () in
  Obs.Span.begin_ ~cat:"chaos"
    ~args:
      ([
         ("seed", Obs.Json.Int seed);
         ("runs", Obs.Json.Int runs);
         ("n", Obs.Json.Int config.n);
         ("t", Obs.Json.Int config.t);
         ( "quorum",
           Obs.Json.Int
             (Option.value config.quorum ~default:(config.n - config.t)) );
       ]
      @
      match config.membership with
      | None -> []
      | Some d ->
          [
            ("seed_members", Obs.Json.Int d.seed_members);
            ("churn_rate", Obs.Json.Int d.churn_rate);
            ("churn_window", Obs.Json.Int d.churn_window);
            ("churn_slack", Obs.Json.Int d.churn_slack);
            ( "width_bits",
              match d.width_bits with
              | Some b -> Obs.Json.Int b
              | None -> Obs.Json.Null );
          ])
    "chaos.campaign";
  let monitor =
    Sched.Budget.arm (Sched.Budget.make ?deadline ())
  in
  let over_deadline () =
    match deadline with
    | None -> false
    | Some d -> Sched.Budget.elapsed monitor >= d
  in
  let acc =
    ref
      {
        runs = 0;
        requested = runs;
        degraded = false;
        violations = 0;
        total_events = 0;
        total_completed = 0;
        first = None;
      }
  in
  (* Fold one run's outcome into the campaign, on the main domain: the
     per-run metrics, trace instant and (for the first violation) the
     inline shrink happen here in seed order, so a parallel campaign
     replays exactly the sequential tally — byte-identical verdicts,
     counts and traces for a fixed seed. *)
  let tally s o =
    Obs.Metrics.inc m_runs;
    if failed o then Obs.Metrics.inc m_violations;
    (* Each run's instant carries its resolved RNG point (state after the
       crash-pattern prefix, plus the crash schedule itself): a single
       mid-campaign run replays from the trace via [run_at], without
       re-rolling the campaign prefix. *)
    Obs.Span.instant ~cat:"chaos"
      ~args:
        ([
           ("seed", Obs.Json.Int s);
           ( "verdict",
             Obs.Json.Str
               (if failed o then "nonlinearizable" else "linearizable") );
           ("events", Obs.Json.Int o.events);
           ("completed", Obs.Json.Int o.completed);
         ]
        @
        match o.rng_point with
        | None -> []
        | Some p ->
            let pid_at entries =
              Obs.Json.List
                (List.map
                   (fun (pid, at) ->
                     Obs.Json.List [ Obs.Json.Int pid; Obs.Json.Int at ])
                   entries)
            in
            [
              ("rng_state", Obs.Json.Str (Int64.to_string p.rng_state));
              ("crash_at", pid_at p.crash_at);
            ]
            @
            if p.churn = Membership.no_churn then []
            else
              [
                ("enter_at", pid_at p.churn.Membership.enter_at);
                ("leave_at", pid_at p.churn.Membership.leave_at);
              ])
      "chaos.run";
    let c = !acc in
    let first =
      match (c.first, failed o) with
      | None, true ->
          let shrunk, shrink_tests = shrink config (Faults.decompile o.plan) in
          let found =
            {
              seed = s;
              original = o;
              shrunk;
              shrunk_outcome = run_plan config shrunk;
              shrink_tests;
            }
          in
          (* First NONLINEARIZABLE verdict: dump the flight recorder.
             The rings now hold the failing run's chaos.run instant
             (rng point, crash/churn schedule) and the shrink replays —
             enough to reproduce without having traced. Best-effort and
             silent: campaigns run inside tests too. *)
          ignore (Obs.Recorder.dump ~since:flight_mark ~reason:"nonlinearizable" ());
          Some found
      | first, _ -> first
    in
    acc :=
      {
        c with
        runs = c.runs + 1;
        violations = (c.violations + if failed o then 1 else 0);
        total_events = c.total_events + o.events;
        total_completed = c.total_completed + o.completed;
        first;
      }
  in
  (* Seeded runs are mutually independent — each rewinds its domain's
     pooled instance and draws its own rng — so they are the units of
     [Par.run_units]. The deadline is
     checked before each run: a run is bounded by [config.max_events], so
     the overshoot is one run. A skipped run stops the fold, which
     therefore always consumes a contiguous seed prefix; only a deadline
     can make the counts depend on [jobs]. *)
  (try
     Sched.Par.run_units ~jobs
       ~units:(Array.init (max 0 runs) (fun i -> seed + i))
       (fun s ->
         if over_deadline () then None else Some (run_random ~seed:s config))
       (fun i -> function
         | None ->
             acc := { !acc with degraded = true };
             raise Exit
         | Some o -> tally (seed + i) o)
   with Exit -> ());
  let c = !acc in
  Obs.Span.end_ ~cat:"chaos"
    ~args:
      [
        ("runs", Obs.Json.Int c.runs);
        ("violations", Obs.Json.Int c.violations);
        ("degraded", Obs.Json.Bool c.degraded);
        ( "first_violation_seed",
          match c.first with
          | Some f -> Obs.Json.Int f.seed
          | None -> Obs.Json.Null );
      ]
    "chaos.campaign";
  c

let pp_campaign ppf c =
  Format.fprintf ppf
    "%d runs, %d violation(s), %d fault events, %d completed ops" c.runs
    c.violations c.total_events c.total_completed;
  if c.degraded then
    Format.fprintf ppf " (deadline: stopped %d run(s) short)"
      (c.requested - c.runs);
  match c.first with
  | None -> ()
  | Some f ->
      Format.fprintf ppf
        "@ first at seed %d: plan %d events -> shrunk %d (%d deliveries, %d \
         replays); replayed verdict: %a"
        f.seed
        (Array.length f.original.plan)
        (List.length f.shrunk)
        (Faults.deliveries f.shrunk)
        f.shrink_tests
        (L.pp_verdict Format.pp_print_int)
        f.shrunk_outcome.verdict
