(* Domain-parallel exploration. The sequential engine is already
   partition-friendly: a budgeted run hands back a frontier of disjoint
   subtree prefixes, and [explore ~resume] replays a prefix without
   counting its nodes, so budgeted segments partition the search tree
   exactly (PR 3's resume-partition test). The parallel driver leans on
   that invariant:

   1. a short budgeted seed pass on the calling domain grows the frontier
      until it holds enough disjoint prefixes to feed the pool;
   2. the prefixes fan out to [jobs] domains pulling from one atomic
      queue; each unit is an independent [Explore.explore ~resume] over a
      private scheduler state built by its own [init ()] call —
      no scheduler state is ever shared between domains;
   3. per-unit stats merge with [add_stats] and per-unit visitor results
      merge with the caller's [merge], both in unit-index order, so the
      merged output is a pure function of the workload, never of worker
      scheduling.

   Soundness of the partition: frontier prefixes are exactly the roots of
   the subtrees the seed pass did not enter, they are pairwise disjoint,
   and together with the seed pass's visited terminals they cover the
   whole tree. Workers use fresh dedup and sleep sets, which only ever
   make a unit explore {e more} than the sequential run would have below
   the same root — the terminal-state *set* is preserved. With dedup on,
   a canonical state reachable under several prefixes may be visited by
   several workers (the sequential run would have deduped the later
   arrivals), so [deduped] can drop and visit counts can exceed the
   sequential run's; with dedup and POR off the counts partition exactly. *)

type 'r result = {
  stats : Explore.stats;
  outcome : Explore.outcome;
  value : 'r;
  jobs : int;
  units : int;
}

(* {2 The worker pool} *)

(* More domains than this buys nothing on machines we target and costs
   per-domain runtime structures; [run_units] also never spawns more
   domains than there are units. *)
let max_jobs = 64

let run_units ~jobs ~units f k =
  let n = Array.length units in
  let jobs = max 1 (min (min jobs n) max_jobs) in
  if jobs = 1 then
    (* No pool, no capture: each unit runs and is consumed before the next
       one starts, so a raising [k] leaves later units unrun. *)
    Array.iteri (fun i u -> k i (f u)) units
  else begin
    (* Every unit runs under [Sink.captured] — its events buffered
       privately on whichever domain executes it. Sinks are
       single-consumer and the flight recorder is the main domain's, so
       even the main domain's own units capture rather than emitting or
       recording directly: the buffers drain in unit-index order after
       the join, which is what keeps traces and flight dumps
       byte-identical at any pool width. *)
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    (* Workers claim unit indices in order from one atomic counter; result
       slots are per-index, so writes from distinct domains never alias. A
       failed unit flips [failed] and the pool drains: in-flight units
       finish, unclaimed ones stay untouched. Every unit below a failed
       one was claimed before it, so its slot is filled by the join. *)
    let rec worker () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match Obs.Sink.captured (fun () -> f units.(i)) with
          | r -> results.(i) <- Some (Ok r)
          | exception exn ->
              results.(i) <- Some (Error (exn, Printexc.get_raw_backtrace ()));
              Atomic.set failed true);
          worker ()
        end
      end
    in
    let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    (* Consume in unit-index order — the order a sequential pass would
       have emitted and consumed them — replaying each unit's events,
       stamped on the main domain's clock, just before its [k]. The
       first failed slot ends the pass, so [k] sees exactly the units
       the jobs = 1 loop would have reached. *)
    Array.iteri
      (fun i slot ->
        match slot with
        | Some (Ok (r, events)) ->
            Obs.Span.replay events;
            k i r
        | Some (Error (exn, bt)) -> Printexc.raise_with_backtrace exn bt
        | None -> assert false)
      results
  end

(* {2 The parallel exploration driver} *)

(* Same registry cells as the sequential engine (registration is
   idempotent per name): a partitioned run reports through the same
   metrics surface. *)
let m_budget_trips = Obs.Metrics.counter "explore.budget_trips"

let stop_reason_of_remaining (b : Budget.t) =
  if match b.Budget.deadline with Some d -> d <= 0. | None -> false then
    Some Budget.Deadline
  else if b.Budget.max_nodes = Some 0 then Some Budget.Node_cap
  else None

let budget_spent b = stop_reason_of_remaining b <> None

(* How many seed segments to run before settling for whatever frontier we
   have: each segment costs [seed_nodes] nodes, so this also bounds the
   sequential prelude. *)
let grow_rounds = 64

(* The seed pass stops once the frontier holds this many prefixes per
   worker: a few units per worker even out skewed subtree sizes. *)
let split_factor = 4

let explore ?max_steps ?max_crashes ?(dedup = true) ?(por = true)
    ?(budget = Budget.unlimited) ?resume ?clock ?(jobs = 1)
    ?(seed_nodes = 512) ~init ~fold ~merge zero =
  let jobs = max 1 (min jobs max_jobs) in
  if jobs = 1 then begin
    (* The sequential path, untouched: one engine call, spans and metrics
       exactly as before. *)
    let acc = ref zero in
    let r =
      Explore.explore ?max_steps ?max_crashes ~dedup ~por ~budget ?resume
        ?clock ~init (fun st -> acc := fold st !acc)
    in
    {
      stats = r.Explore.stats;
      outcome = r.Explore.outcome;
      value = !acc;
      jobs = 1;
      units = 0;
    }
  end
  else begin
    let monitor = Budget.arm ?clock budget in
    let target = split_factor * jobs in
    Obs.Span.begin_ ~cat:"explore"
      ~args:
        [
          ("jobs", Obs.Json.Int jobs);
          ("split_factor", Obs.Json.Int split_factor);
          ("seed_nodes", Obs.Json.Int seed_nodes);
        ]
      "explore.par";
    let finish ~units ~stats ~value ~outcome ~aborted =
      Explore.publish_stats stats;
      (match outcome with
      | Explore.Exhausted _ -> Obs.Metrics.inc m_budget_trips
      | Explore.Complete -> ());
      Obs.Span.end_ ~cat:"explore"
        ~args:
          [
            ("nodes", Obs.Json.Int stats.Explore.nodes);
            ("terminals", Obs.Json.Int stats.Explore.terminals);
            ("units", Obs.Json.Int units);
            ( "outcome",
              Obs.Json.Str
                (if aborted then "aborted"
                 else
                   match outcome with
                   | Explore.Complete -> "complete"
                   | Explore.Exhausted { reason; _ } ->
                       Budget.stop_reason_to_string reason) );
          ]
        "explore.par";
      { stats; outcome; value; jobs; units }
    in
    let body () =
      (* Seed pass: budgeted segments on this domain, each capped at
         [seed_nodes] fresh nodes, resumed on their own frontier until it
         is wide enough to keep [jobs] workers busy (or the tree, or the
         caller's budget, runs out first). *)
      let seed_acc = ref zero in
      let seed_stats = ref Explore.zero_stats in
      let nodes_done = ref 0 and terminals_done = ref 0 in
      let remaining () = Budget.remaining monitor ~nodes:!nodes_done in
      let segment resume =
        let b =
          Budget.min_caps (remaining ()) (Budget.make ~max_nodes:seed_nodes ())
        in
        let r =
          Explore.explore ?max_steps ?max_crashes ~dedup ~por ~budget:b
            ?resume ~quiet:true ~init (fun st -> seed_acc := fold st !seed_acc)
        in
        seed_stats := Explore.add_stats !seed_stats r.Explore.stats;
        nodes_done := !nodes_done + r.Explore.stats.Explore.nodes;
        terminals_done := !terminals_done + r.Explore.stats.Explore.terminals;
        r.Explore.outcome
      in
      (* One progress instant per seed segment: logical-clock driven, so
         the cadence replays identically run over run. Rate fields only
         appear when the user opted into wall time. *)
      let progress phase extra =
        Obs.Span.instant ~cat:"explore"
          ~args:
            ([
               ("phase", Obs.Json.Str phase);
               ("nodes", Obs.Json.Int !nodes_done);
               ("terminals", Obs.Json.Int !terminals_done);
             ]
            @ extra
            @
            if Obs.Span.wall_enabled () then
              let dt = Budget.elapsed monitor in
              [ ("elapsed_s", Obs.Json.Float dt) ]
              @
              if dt > 0. then
                [
                  ( "nodes_per_s",
                    Obs.Json.Float (float_of_int !nodes_done /. dt) );
                ]
              else []
            else [])
          "explore.progress"
      in
      let rec grow resume round =
        match segment resume with
        | Explore.Complete -> `Seed_complete
        | Explore.Exhausted { frontier; reason } ->
            progress "seed"
              [
                ("round", Obs.Json.Int round);
                ("frontier", Obs.Json.Int (Budget.frontier_size frontier));
              ];
            if budget_spent (remaining ()) then `Spent (frontier, reason)
            else if
              Budget.frontier_size frontier >= target || round >= grow_rounds
            then `Frontier frontier
            else grow (Some frontier) (round + 1)
      in
      match grow resume 1 with
      | `Seed_complete ->
          finish ~units:0 ~stats:!seed_stats ~value:!seed_acc
            ~outcome:Explore.Complete ~aborted:false
      | `Spent (frontier, reason) ->
          finish ~units:0 ~stats:!seed_stats ~value:!seed_acc
            ~outcome:(Explore.Exhausted { frontier; reason })
            ~aborted:false
      | `Frontier frontier ->
          let paths = Array.of_list frontier in
          let n = Array.length paths in
          (* Each unit runs under the node cap the seed pass left, and
             results are admitted in unit-index order until the cap is
             reached; later units go back whole as leftover frontier. A
             unit skips itself only when every lower-index unit is done
             and their nodes reach the cap. *)
          let seed_done = !nodes_done in
          let done_nodes = Array.init n (fun _ -> Atomic.make (-1)) in
          let cap_reached nodes =
            (Budget.remaining monitor ~nodes).Budget.max_nodes = Some 0
          in
          let rec lower_done i k total =
            if k = i then cap_reached total
            else
              let d = Atomic.get done_nodes.(k) in
              d >= 0 && lower_done i (k + 1) (total + d)
          in
          let run_unit i =
            let rem = Budget.remaining monitor ~nodes:seed_done in
            if budget_spent rem || lower_done i 0 seed_done then begin
              Atomic.set done_nodes.(i) 0;
              `Skipped
            end
            else begin
              let acc = ref zero in
              let r =
                Explore.explore ?max_steps ?max_crashes ~dedup ~por
                  ~budget:rem ~resume:[ paths.(i) ] ~quiet:true ~init
                  (fun st -> acc := fold st !acc)
              in
              Atomic.set done_nodes.(i) r.Explore.stats.Explore.nodes;
              let leftover, reason =
                match r.Explore.outcome with
                | Explore.Complete -> ([], None)
                | Explore.Exhausted { frontier; reason } ->
                    (frontier, Some reason)
              in
              `Done (!acc, r.Explore.stats, leftover, reason)
            end
          in
          (* Deterministic reduction: stats, values and leftover frontier
             paths combine in unit-index order, which is frontier order,
             which the seed pass fixed before any domain was spawned. *)
          let stats = ref !seed_stats in
          let value = ref !seed_acc in
          let first_reason = ref None in
          let leftovers = ref [] in
          let admitted = ref seed_done in
          run_units ~jobs ~units:(Array.init n Fun.id) run_unit (fun i ->
            function
            | `Done (acc, st, leftover, reason) when not (cap_reached !admitted)
              ->
                admitted := !admitted + st.Explore.nodes;
                stats := Explore.add_stats !stats st;
                if !first_reason = None then first_reason := reason;
                value := merge !value acc;
                leftovers := List.rev_append leftover !leftovers
            | `Done _ | `Skipped -> leftovers := paths.(i) :: !leftovers);
          let leftovers = List.rev !leftovers in
          let outcome =
            if leftovers = [] then Explore.Complete
            else
              let reason =
                match
                  stop_reason_of_remaining
                    (Budget.remaining monitor ~nodes:!admitted)
                with
                | Some r -> r
                | None ->
                    Option.value !first_reason ~default:Budget.Node_cap
              in
              Explore.Exhausted { frontier = leftovers; reason }
          in
          nodes_done := !admitted;
          terminals_done := !stats.Explore.terminals;
          progress "merged" [ ("units", Obs.Json.Int n) ];
          finish ~units:n ~stats:!stats ~value:!value
            ~outcome ~aborted:false
    in
    match body () with
    | r -> r
    | exception exn ->
        (* Close the span before the exception continues, mirroring the
           sequential engine's abort path. *)
        let bt = Printexc.get_raw_backtrace () in
        Obs.Span.end_ ~cat:"explore"
          ~args:[ ("outcome", Obs.Json.Str "aborted") ]
          "explore.par";
        Printexc.raise_with_backtrace exn bt
  end
