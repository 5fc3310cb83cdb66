(* [Check.Linearize.check] as it was before it learned to skip work on
   histories whose answer needs none: every history is partitioned by
   register, and every register's index is heap-sorted by response time.
   Kept verbatim as the differential reference: the QCheck property in
   test_check requires [Check.Linearize.check] to return exactly what
   this does — verdict, witness order and reason text. *)

open Check.Linearize

let completed e = e.res <> None
let is_read e = match e.op with Read _ -> true | Write _ -> false

(* Decide one register's history. Pending reads were dropped by the caller;
   pending writes are optional. Greedy rule: a minimal completed read that
   returns the current value can always be linearized immediately — reads
   leave the register unchanged, so hoisting one to the front of any witness
   keeps the witness legal. Backtracking is only over writes.

   This is the compiled form of the search: event fields are unpacked into
   flat int arrays up front, the minimality test reads the smallest live
   response time off a res-sorted index instead of rescanning the history,
   undo pops a trail of taken indices instead of copying the [used] array,
   and the write backtracking runs on an explicit frame stack. Candidate
   enumeration order is untouched, so witnesses — and hence every digest
   built over verdicts — are byte-identical to the recursive search. *)
let check_reg ~pp ~init ~equal evs =
  let nn = Array.length evs in
  if nn = 0 then Ok []
  else begin
    (* [res_a.(i) = max_int] encodes pending: never blocks minimality and
       never counts toward [remaining]. *)
    let inv_a = Array.make nn 0 in
    let res_a = Array.make nn max_int in
    let read_a = Array.make nn false in
    let val_a =
      Array.make nn (match evs.(0).op with Read v | Write v -> v)
    in
    let remaining = ref 0 in
    for i = 0 to nn - 1 do
      let e = evs.(i) in
      inv_a.(i) <- e.inv;
      (match e.res with
      | Some r ->
          res_a.(i) <- r;
          incr remaining
      | None -> ());
      match e.op with
      | Read v ->
          read_a.(i) <- true;
          val_a.(i) <- v
      | Write v -> val_a.(i) <- v
    done;
    (* Indices sorted by response time; [first_live] is a lazy pointer to
       the first unused entry. Ties in [res] are interchangeable for the
       minimality test, so the sort's instability cannot change verdicts. *)
    let by_res = Array.init nn (fun i -> i) in
    Array.sort (fun a b -> compare res_a.(a) res_a.(b)) by_res;
    let rank = Array.make nn 0 in
    Array.iteri (fun pos i -> rank.(i) <- pos) by_res;
    let first_live = ref 0 in
    let used = Array.make nn false in
    (* [e_i] may go next iff no unused completed operation other than [i]
       responded before [e_i]'s invocation — i.e. the smallest live [res]
       excluding [i] is [>= inv_a.(i)]. Only called with [used.(i) = false]. *)
    let minimal_fast i =
      let p = ref !first_live in
      while !p < nn && used.(by_res.(!p)) do incr p done;
      first_live := !p;
      if !p >= nn then true
      else begin
        let j = by_res.(!p) in
        if j <> i then res_a.(j) >= inv_a.(i)
        else begin
          let q = ref (!p + 1) in
          while !q < nn && used.(by_res.(!q)) do incr q done;
          !q >= nn || res_a.(by_res.(!q)) >= inv_a.(i)
        end
      end
    in
    let witness = ref [] in
    let trail = Array.make nn 0 in
    let trail_len = ref 0 in
    let take i =
      used.(i) <- true;
      if res_a.(i) <> max_int then decr remaining;
      witness := evs.(i) :: !witness;
      trail.(!trail_len) <- i;
      incr trail_len
    in
    let restore_to sp saved_witness =
      while !trail_len > sp do
        decr trail_len;
        let i = trail.(!trail_len) in
        used.(i) <- false;
        if res_a.(i) <> max_int then incr remaining;
        if rank.(i) < !first_live then first_live := rank.(i)
      done;
      witness := saved_witness
    in
    let rec greedy_reads value =
      let progress = ref false in
      for i = 0 to nn - 1 do
        if
          (not used.(i)) && read_a.(i) && res_a.(i) <> max_int
          && equal val_a.(i) value
          && minimal_fast i
        then begin
          take i;
          progress := true
        end
      done;
      if !progress then greedy_reads value
    in
    (* One frame per tentatively taken write: the next candidate index to
       try, the trail savepoint, and the witness at savepoint. Depth is
       bounded by the number of writes, hence by [nn]. *)
    let fr_i = Array.make (nn + 1) 0 in
    let fr_sp = Array.make (nn + 1) 0 in
    let fr_wit = Array.make (nn + 1) [] in
    let depth = ref 0 in
    let push_frame () =
      fr_i.(!depth) <- 0;
      fr_sp.(!depth) <- !trail_len;
      fr_wit.(!depth) <- !witness;
      incr depth
    in
    let ok = ref false in
    greedy_reads (init ());
    if !remaining = 0 then ok := true
    else begin
      push_frame ();
      let running = ref true in
      while !running do
        let f = !depth - 1 in
        (* Advance to the next untaken minimal write, in index order. *)
        let i = ref fr_i.(f) in
        while
          !i < nn
          && not ((not read_a.(!i)) && (not used.(!i)) && minimal_fast !i)
        do
          incr i
        done;
        if !i < nn then begin
          fr_i.(f) <- !i + 1;
          take !i;
          greedy_reads val_a.(!i);
          if !remaining = 0 then begin
            ok := true;
            running := false
          end
          else push_frame ()
        end
        else begin
          (* This branch is exhausted: unwind to the caller's savepoint. *)
          decr depth;
          if !depth = 0 then running := false
          else restore_to fr_sp.(!depth - 1) fr_wit.(!depth - 1)
        end
      done
    end;
    if !ok then Ok (List.rev !witness)
  else begin
    (* For the message: the earliest-invoked completed operation that the
       search could not place. The greedy pass consumed everything
       consistent, so after a failed search some completed read disagrees
       with every reachable register value. *)
    let stuck = ref None in
    Array.iter
      (fun e ->
        if completed e then
          match !stuck with
          | Some s when s.inv <= e.inv -> ()
          | Some _ | None -> ( match e.op with Read _ -> stuck := Some e | Write _ -> ()))
      evs;
    let reason =
      match !stuck with
      | Some ({ op = Read v; _ } as e) ->
          Format.asprintf
            "read by p%d over [%d,%s] returned %a, which no interleaving of \
             the writes consistent with real-time order can produce"
            e.proc e.inv
            (match e.res with Some r -> string_of_int r | None -> "?")
            pp v
      | Some _ | None ->
          "no linearization of the completed operations exists"
      in
      Error reason
    end
  end

(* The history split by register, ascending, each part in input order
   with its pending reads dropped: they promise nothing. A partition per
   register rather than a table, since a history seldom has more than
   one. *)
let rec by_reg = function
  | [] -> []
  | e :: _ as events ->
      let mine, rest = List.partition (fun x -> x.reg = e.reg) events in
      (e.reg, List.filter (fun e -> completed e || not (is_read e)) mine)
      :: by_reg rest

let default_pp ppf _ = Format.pp_print_string ppf "<v>"

let check ?(pp = default_pp) ~init ~equal events =
  let rec per_reg acc = function
    | [] -> Linearizable (List.concat (List.rev acc))
    | (reg, evs) :: rest -> (
        match
          check_reg ~pp ~init:(fun () -> init reg) ~equal (Array.of_list evs)
        with
        | Ok witness -> per_reg (witness :: acc) rest
        | Error reason -> Nonlinearizable { reg; reason })
  in
  per_reg [] (List.sort (fun (a, _) (b, _) -> Int.compare a b) (by_reg events))
