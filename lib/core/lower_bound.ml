module Q = Bits.Rational
module P = Sched.Program
module Scheduler = Sched.Scheduler
open P.Infix

type 'v two_protocol = {
  name : string;
  bits : int;
  memory : unit -> ('v, int) Sched.Memory.t;
  program : me:int -> input:int -> ('v, int, Q.t) Sched.Program.t;
  equal_value : 'v -> 'v -> bool;
  pp_value : Format.formatter -> 'v -> unit;
}

let pow_int base e =
  let rec loop acc e = if e = 0 then acc else loop (acc * base) (e - 1) in
  loop 1 e

let epsilon_threshold ~bits ~n ~t =
  let k = (2 * pow_int (1 lsl bits) (n - t + 1)) + 1 in
  Q.make 1 k

type 'v bucket = {
  word : 'v * 'v;
  outputs : (Q.t * Q.t) list;
  spread : Q.t;
}

type 'v analysis = {
  executions : int;
  buckets : 'v bucket list;
  max_spread : Q.t;
  distinct_words : int;
  search : Sched.Explore.stats;
}

let analyse proto =
  let executions = ref 0 in
  (* Association list keyed by register word; at most 2^(2 bits) entries by
     construction, so linear scans are cheap no matter how many executions
     there are. *)
  let raw : (('v * 'v) * (Q.t * Q.t) list ref) list ref = ref [] in
  let equal_word (a0, a1) (b0, b1) =
    proto.equal_value a0 b0 && proto.equal_value a1 b1
  in
  let init () =
    Scheduler.start
      ~memory:(proto.memory ())
      ~programs:(fun pid -> proto.program ~me:pid ~input:pid)
      ()
  in
  let result =
    Sched.Explore.explore ~max_steps:1_000_000 ~init (fun state ->
      incr executions;
      let decisions = Scheduler.decisions state in
      let pair =
        match (decisions.(0), decisions.(1)) with
        | Some y0, Some y1 -> (y0, y1)
        | _ -> assert false (* crash-free enumeration: both decide *)
      in
      let contents = Sched.Memory.contents (Scheduler.memory state) in
      let word = (contents.(0), contents.(1)) in
      let cell =
        match List.find_opt (fun (w, _) -> equal_word w word) !raw with
        | Some (_, cell) -> cell
        | None ->
            let cell = ref [] in
            raw := (word, cell) :: !raw;
            cell
      in
      let pair_equal (a0, a1) (b0, b1) = Q.equal a0 b0 && Q.equal a1 b1 in
      if not (List.exists (pair_equal pair) !cell) then cell := pair :: !cell)
  in
  let buckets =
    List.map
      (fun (word, cell) ->
        let values =
          List.concat_map (fun (y0, y1) -> [ y0; y1 ]) !cell
        in
        { word; outputs = !cell; spread = Q.spread values })
      !raw
    |> List.sort (fun a b -> Q.compare b.spread a.spread)
  in
  let max_spread =
    match buckets with [] -> Q.zero | b :: _ -> b.spread
  in
  {
    executions = !executions;
    buckets;
    max_spread;
    distinct_words = List.length buckets;
    search = result.Sched.Explore.stats;
  }

let third_process_error analysis = Q.mul Q.half analysis.max_spread

let coverage analysis =
  let values =
    List.concat_map
      (fun b -> List.concat_map (fun (y0, y1) -> [ y0; y1 ]) b.outputs)
      analysis.buckets
  in
  List.sort_uniq Q.compare values

type 'v witness = {
  word : 'v * 'v;
  low_schedule : int list;
  low_outputs : Q.t * Q.t;
  high_schedule : int list;
  high_outputs : Q.t * Q.t;
  best_third_decision : Q.t;
  forced_error : Q.t;
}

let witness proto =
  (* Re-explore with traces on, remembering per register word the
     executions with the lowest and highest decided value. *)
  let equal_word (a0, a1) (b0, b1) =
    proto.equal_value a0 b0 && proto.equal_value a1 b1
  in
  let extremes :
      (('v * 'v) * (Q.t * (int list * (Q.t * Q.t))) * _) list ref =
    ref []
  in
  let init () =
    Scheduler.start ~record_trace:true
      ~memory:(proto.memory ())
      ~programs:(fun pid -> proto.program ~me:pid ~input:pid)
      ()
  in
  let (_ : Sched.Explore.result) =
    Sched.Explore.explore ~max_steps:1_000_000 ~init (fun state ->
      let y0, y1 =
        match
          ((Scheduler.decisions state).(0), (Scheduler.decisions state).(1))
        with
        | Some a, Some b -> (a, b)
        | _ -> assert false
      in
      let contents = Sched.Memory.contents (Scheduler.memory state) in
      let word = (contents.(0), contents.(1)) in
      let schedule = Sched.Trace.schedule_of (Scheduler.trace state) in
      let lo = Q.min y0 y1 and hi = Q.max y0 y1 in
      let entry = (schedule, (y0, y1)) in
      let rec update = function
        | [] -> [ (word, (lo, entry), (hi, entry)) ]
        | (w, (best_lo, lo_e), (best_hi, hi_e)) :: rest
          when equal_word w word ->
            let low = if Q.(lo < best_lo) then (lo, entry) else (best_lo, lo_e)
            and high =
              if Q.(hi > best_hi) then (hi, entry) else (best_hi, hi_e)
            in
            (w, low, high) :: rest
        | other :: rest -> other :: update rest
      in
      extremes := update !extremes)
  in
  let best =
    List.fold_left
      (fun acc ((_, (lo, _), (hi, _)) as candidate) ->
        match acc with
        | None -> Some candidate
        | Some (_, (lo', _), (hi', _)) ->
            if Q.(sub hi lo > sub hi' lo') then Some candidate else acc)
      None !extremes
  in
  match best with
  | None -> invalid_arg "Lower_bound.witness: no executions"
  | Some (word, (lo, (low_schedule, low_outputs)), (hi, (high_schedule, high_outputs)))
    ->
      {
        word;
        low_schedule;
        low_outputs;
        high_schedule;
        high_outputs;
        best_third_decision = Q.mul Q.half (Q.add lo hi);
        forced_error = Q.mul Q.half (Q.sub hi lo);
      }

(* The quantized midpoint protocol: an s-bit register can publish one of
   2^s - 1 grid points (one codeword is reserved for "nothing written
   yet"). *)
let quantized_protocol ~bits ~rounds =
  if bits < 2 then invalid_arg "Lower_bound.quantized_protocol: bits >= 2";
  let levels = (1 lsl bits) - 1 in
  let empty = levels in
  let grid m = Q.make m (levels - 1) in
  (* Nearest grid index to v in [0,1]: round(v * (levels - 1)). *)
  let quantize v =
    let scaled = Q.mul v (Q.of_int (levels - 1)) in
    let lo = Q.num scaled / Q.den scaled in
    let m =
      if Q.(sub scaled (of_int lo) <= sub (of_int (lo + 1)) scaled) then lo
      else lo + 1
    in
    max 0 (min (levels - 1) m)
  in
  let program ~me ~input =
    let other = 1 - me in
    let rec run r v =
      if r > rounds then P.return v
      else
        let* () = P.write (quantize v) in
        let* seen = P.read other in
        if seen = empty then run (r + 1) v
        else run (r + 1) (Q.mul Q.half (Q.add v (grid seen)))
    in
    run 1 (Q.of_int input)
  in
  {
    name = Printf.sprintf "quantized(bits=%d,R=%d)" bits rounds;
    bits;
    memory =
      (fun () ->
        Sched.Memory.create ~n:2 ~budget:(Bits.Width.Bounded bits)
          ~measure:(Bits.Width.uint ~max:empty) ~init:empty);
    program;
    equal_value = Int.equal;
    pp_value = Format.pp_print_int;
  }

let alg1_protocol ~k =
  {
    name = Printf.sprintf "alg1(k=%d)" k;
    bits = 1;
    memory =
      (fun () ->
        Sched.Memory.create ~n:2 ~budget:(Bits.Width.Bounded 1)
          ~measure:(Bits.Width.uint ~max:1) ~init:0);
    program =
      (fun ~me ~input ->
        Alg1_one_bit.protocol ~env:Alg1_one_bit.env_standalone ~k ~me ~input);
    equal_value = Int.equal;
    pp_value = Format.pp_print_int;
  }
