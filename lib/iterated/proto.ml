type ('v, 'a) t =
  | Decide of 'a
  | Round of 'v * ('v Views.vector -> ('v, 'a) t)

module type SHAPE = sig
  type plan

  val survivors : plan -> int list
  val sees : n:int -> plan -> bool array array
  val all : n:int -> int list -> plan list
end

module type ENGINE = sig
  type plan

  type ('v, 'a) program = ('v, 'a) t =
    | Decide of 'a
    | Round of 'v * ('v Views.vector -> ('v, 'a) program)

  type 'a outcome = {
    decisions : 'a option array;
    rounds_taken : int array;
    max_bits : int;
    history : plan list;
  }

  val run :
    n:int ->
    budget:Bits.Width.budget ->
    measure:'v Bits.Width.measure ->
    programs:(int -> ('v, 'a) program) ->
    schedule:(round:int -> participants:int list -> plan) ->
    ?max_rounds:int ->
    unit ->
    'a outcome

  val run_random :
    n:int ->
    budget:Bits.Width.budget ->
    measure:'v Bits.Width.measure ->
    programs:(int -> ('v, 'a) program) ->
    rng:Bits.Rng.t ->
    ?crash_probability:float ->
    ?max_rounds:int ->
    unit ->
    'a outcome

  val enumerate :
    n:int ->
    budget:Bits.Width.budget ->
    measure:'v Bits.Width.measure ->
    programs:(int -> ('v, 'a) program) ->
    max_rounds:int ->
    ('a outcome -> unit) ->
    unit
end

module Make (S : SHAPE) = struct
  type plan = S.plan

  type ('v, 'a) program = ('v, 'a) t =
    | Decide of 'a
    | Round of 'v * ('v Views.vector -> ('v, 'a) program)

  type 'a outcome = {
    decisions : 'a option array;
    rounds_taken : int array;
    max_bits : int;
    history : plan list;
  }

  type ('v, 'a) state = {
    progs : ('v, 'a) program array;
    alive : bool array;  (** false once crashed *)
    rounds : int array;
    mutable bits : int;
    mutable past : plan list;  (** newest first *)
  }

  let initial_state ~n ~programs =
    {
      progs = Array.init n programs;
      alive = Array.make n true;
      rounds = Array.make n 0;
      bits = 0;
      past = [];
    }

  let copy_state s =
    {
      s with
      progs = Array.copy s.progs;
      alive = Array.copy s.alive;
      rounds = Array.copy s.rounds;
    }

  let running s pid =
    s.alive.(pid)
    && match s.progs.(pid) with Round _ -> true | Decide _ -> false

  let participants s =
    List.filter (running s) (List.init (Array.length s.progs) Fun.id)

  let outcome_of s =
    {
      decisions =
        Array.map (function Decide v -> Some v | Round _ -> None) s.progs;
      rounds_taken = Array.copy s.rounds;
      max_bits = s.bits;
      history = List.rev s.past;
    }

  (* Validate the whole plan, survivors then sees matrix, before touching
     the state: a rejected round is not executed at all. Every pid left
     out crashes; then all survivors write, and then each reads the writes
     its row of [sees] selects. *)
  let exec_round ~budget ~measure s plan =
    let n = Array.length s.progs in
    let survivors = S.survivors plan in
    let scheduled = Array.make n false in
    List.iter
      (fun pid ->
        let reject why =
          invalid_arg (Printf.sprintf "Proto: scheduled pid %d %s" pid why)
        in
        if pid < 0 || pid >= n then reject "is out of range"
        else if scheduled.(pid) then reject "twice"
        else if not (running s pid) then reject "is not a participant";
        scheduled.(pid) <- true)
      survivors;
    let sees = S.sees ~n plan in
    Array.iteri (fun pid on -> if not on then s.alive.(pid) <- false) scheduled;
    let memory = Array.make n None in
    List.iter
      (fun pid ->
        match s.progs.(pid) with
        | Decide _ -> assert false
        | Round (v, _) ->
            let bits = measure v in
            Bits.Width.check budget bits;
            if bits > s.bits then s.bits <- bits;
            memory.(pid) <- Some v)
      survivors;
    List.iter
      (fun pid ->
        match s.progs.(pid) with
        | Decide _ -> assert false
        | Round (_, k) ->
            let view j = if sees.(pid).(j) then memory.(j) else None in
            s.progs.(pid) <- k (Array.init n view);
            s.rounds.(pid) <- s.rounds.(pid) + 1)
      survivors;
    s.past <- plan :: s.past

  let run ~n ~budget ~measure ~programs ~schedule ?(max_rounds = 10_000) () =
    let s = initial_state ~n ~programs in
    let rec loop round =
      match participants s with
      | [] -> outcome_of s
      | _ when round > max_rounds -> outcome_of s
      | procs ->
          exec_round ~budget ~measure s (schedule ~round ~participants:procs);
          loop (round + 1)
    in
    loop 1

  let run_random ~n ~budget ~measure ~programs ~rng ?(crash_probability = 0.)
      ?max_rounds () =
    let schedule ~round:_ ~participants =
      let survivors =
        match
          List.filter
            (fun _ -> Bits.Rng.float rng >= crash_probability)
            participants
        with
        | [] -> [ List.hd participants ]  (* keep at least one alive *)
        | l -> l
      in
      Bits.Rng.pick rng (S.all ~n survivors)
    in
    run ~n ~budget ~measure ~programs ~schedule ?max_rounds ()

  let enumerate ~n ~budget ~measure ~programs ~max_rounds visit =
    let rec go s round =
      match participants s with
      | [] -> visit (outcome_of s)
      | _ when round > max_rounds -> visit (outcome_of s)
      | procs ->
          List.iter
            (fun plan ->
              let fork = copy_state s in
              exec_round ~budget ~measure fork plan;
              go fork (round + 1))
            (S.all ~n procs)
    in
    go (initial_state ~n ~programs) 1
end
