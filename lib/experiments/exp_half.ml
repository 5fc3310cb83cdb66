(* E13 — the t = n/2 frontier (the paper's open problem, Section 9).

   Theorem 1.3's pipeline rests on ABD quorums of size n - t intersecting,
   which needs t < n/2. At t = n/2 two quorums can be disjoint; this
   experiment drives a concrete schedule in which a completed write is
   invisible to a subsequent read — the atomicity failure that breaks step 1
   of the compilation — and shows the same schedule cannot complete at
   t < n/2. *)

let stale_read ~n ~quorum =
  (* Each peer's sends since they were last taken, newest first. *)
  let outbox = Array.make n [] in
  let take me =
    let sends = List.rev outbox.(me) in
    outbox.(me) <- [];
    sends
  in
  let peers =
    Array.init n (fun me ->
        Msgpass.Abd.create ~n ~t:0 ~quorum ~registers:n
          ~init:(fun _ -> 0)
          ~encoding:Msgpass.Abd.boxed
          ~send:(fun ~dst m -> outbox.(me) <- (dst, m) :: outbox.(me))
          ())
  in
  (* Deliver a batch of (destination, message) pairs to the chosen
     recipients only; returns their replies destined for [home]. *)
  let deliver_to ~recipients ~home msgs =
    List.concat_map
      (fun (dst, m) ->
        if List.mem dst recipients then begin
          ignore (Msgpass.Abd.handle peers.(dst) ~from:home m : bool);
          take dst
          |> List.filter (fun (back, _) -> back = home)
          |> List.map snd
        end
        else [])
      msgs
  in
  (* Feed replies to [home]; whether one of them completed its operation. *)
  let complete home replies =
    List.fold_left
      (fun completed m ->
        Msgpass.Abd.handle peers.(home) ~from:home m || completed)
      false replies
  in
  (* Process 0 writes 42; only processes {0, 1} (a quorum at t = n/2) ever
     see it. *)
  Msgpass.Abd.begin_write peers.(0) ~reg:0 42;
  let write_done =
    complete 0 (deliver_to ~recipients:[ 0; 1 ] ~home:0 (take 0))
  in
  (* Process 2 then reads register 0, reaching only {2, 3}. *)
  Msgpass.Abd.begin_read peers.(2) ~reg:0;
  let replies = deliver_to ~recipients:[ 2; 3 ] ~home:2 (take 2) in
  ignore (complete 2 replies : bool);
  let write_back = take 2 in
  let read_done =
    complete 2 (deliver_to ~recipients:[ 2; 3 ] ~home:2 write_back)
  in
  (write_done, if read_done then Some (Msgpass.Abd.result peers.(2)) else None)

(* The staged schedule as a recorded history on a logical clock: the write
   spans [1,2] (or never completes), the read spans [3,4] — sequential, so
   a stale read is not excusable as concurrency. Handing this history to
   Check.Linearize turns the experiment's "STALE READ" label into a machine
   decision. *)
let verdict_of ~write_done ~read_result =
  let open Check.Linearize in
  let write =
    { proc = 0; reg = 0; op = Write 42; inv = 1;
      res = (if write_done then Some 2 else None) }
  in
  let read =
    match read_result with
    | Some v -> [ { proc = 2; reg = 0; op = Read v; inv = 3; res = Some 4 } ]
    | None -> []
  in
  check ~pp:Format.pp_print_int ~init:(fun _ -> 0) ~equal:Int.equal
    (write :: read)

let verdict_cell = function
  | Check.Linearize.Linearizable _ -> "linearizable"
  | Check.Linearize.Nonlinearizable _ -> "NONLINEARIZABLE"

let run _ctx ppf =
  Format.fprintf ppf
    "Section 9 leaves t = n/2 open. The Theorem 1.3 compilation needs ABD@\n\
     quorums (size n - t) to intersect, i.e. t < n/2. With n = 4 we run the@\n\
     same adversarial schedule — a write acknowledged by {0,1}, then a read@\n\
     served by {2,3} — at both quorum sizes:@\n@\n";
  let rows =
    List.map
      (fun (quorum, t_label) ->
        let write_done, read_result = stale_read ~n:4 ~quorum in
        let outcome =
          match (write_done, read_result) with
          | true, Some 0 -> "STALE READ: write lost (atomicity broken)"
          | true, Some v when v = 42 -> "fresh read (would be sound)"
          | true, Some v -> Printf.sprintf "read %d" v
          | true, None -> "read blocked awaiting a third reply (sound)"
          | false, _ -> "write blocked"
        in
        [
          t_label;
          string_of_int quorum;
          Table.cell_bool write_done;
          outcome;
          verdict_cell (verdict_of ~write_done ~read_result);
        ])
      [ (2, "t = n/2 = 2"); (3, "t = 1 < n/2") ]
  in
  Table.print ppf
    ~title:"E13  ABD under the adversarial split-quorum schedule (n = 4)"
    ~headers:
      [ "resilience"; "quorum"; "write completes"; "read outcome"; "Check.Linearize" ]
    rows;
  Format.fprintf ppf
    "At quorum 2 the write completes and the read returns the initial value:@\n\
     a completed write vanished, so no register emulation — and hence no@\n\
     Theorem 1.3-style universality — can be built this way at t = n/2.@\n\
     At quorum 3 the very same delivery pattern cannot even complete the@\n\
     write: completing it requires reaching a third process, whose copy@\n\
     then intersects every read quorum — that intersection is the whole@\n\
     proof of ABD's atomicity, and it is exactly what t = n/2 forfeits.@\n\
     The last column is not a label: the recorded history is decided by@\n\
     the Check.Linearize Wing–Gong search. E15 finds the same violation@\n\
     by seeded fault-injection search instead of a hand-staged schedule.@\n@\n"
