module P = Sched.Program
open P.Infix

type candidate = { rounds : int; write_rules : int array; decide_rule : int }

(* A state after r rounds is the input bit plus the r bits read: index
   input + 2*obs_1 + 4*obs_2 + ... *)
let state_count ~rounds = 1 lsl (rounds + 1)

let rule_bit mask state = (mask lsr state) land 1

let candidates ~rounds =
  let rec enumerate r =
    (* all write_rule assignments for rounds r..rounds, as lists *)
    if r > rounds then Seq.return []
    else
      let space = 1 lsl state_count ~rounds:(r - 1) in
      Seq.concat_map
        (fun mask ->
          Seq.map (fun rest -> mask :: rest) (enumerate (r + 1)))
        (Seq.init space (fun m -> m))
  in
  Seq.concat_map
    (fun write_list ->
      let write_rules = Array.of_list write_list in
      Seq.map
        (fun decide_rule -> { rounds; write_rules; decide_rule })
        (Seq.init (1 lsl state_count ~rounds) (fun m -> m)))
    (enumerate 1)

let program candidate ~me ~input =
  let other = 1 - me in
  let rec go r state =
    if r > candidate.rounds then
      P.return (rule_bit candidate.decide_rule state)
    else
      let* () = P.write (rule_bit candidate.write_rules.(r - 1) state) in
      let* seen = P.read other in
      go (r + 1) (state lor (seen lsl r))
  in
  go 1 input

let task = Tasks.Consensus.binary ~n:2

let verdict candidate =
  let algorithm =
    {
      Tasks.Harness.name = "consensus-candidate";
      memory =
        (fun () ->
          Sched.Memory.create ~n:2 ~budget:(Bits.Width.Bounded 1)
            ~measure:(Bits.Width.uint ~max:1) ~init:0);
      program = (fun ~pid ~input -> program candidate ~me:pid ~input);
    }
  in
  Tasks.Harness.check_exhaustive ~task ~algorithm ~max_crashes:1 ()

type summary = { total : int; survivors : candidate list }

let search ~rounds =
  Seq.fold_left
    (fun acc candidate ->
      match verdict candidate with
      | Tasks.Harness.Pass _ ->
          { total = acc.total + 1; survivors = candidate :: acc.survivors }
      | Tasks.Harness.Fail _ -> { acc with total = acc.total + 1 })
    { total = 0; survivors = [] }
    (candidates ~rounds)
