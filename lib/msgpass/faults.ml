type channel = { src : int; dst : int }

type action =
  | Deliver of channel
  | Drop of channel
  | Duplicate of channel
  | Defer of channel
  | Crash of int
  | Enter of int
  | Leave of int

type plan = action list

(* {2 Opcodes}

   Internally an action is one immediate int — [kind:3 | a:8 | b:8] —
   so the run record is a growable [int array] rather than a consed
   list, a compiled plan is a dense walkable array, and neither the
   random driver nor the fleet's mutation engine constructs a variant
   on its hot path. Eight bits per operand is comfortably above [Net]'s
   61-slot cap. *)

let k_deliver = 0
let k_drop = 1
let k_duplicate = 2
let k_defer = 3
let k_crash = 4
let k_enter = 5
let k_leave = 6
let encode k a b = k lor (a lsl 3) lor (b lsl 11)
let code_kind c = c land 7
let code_a c = (c lsr 3) land 0xff
let code_b c = (c lsr 11) land 0xff

(* [f kind a b] on an action's opcode fields, unpacked and unbounded. *)
let with_fields f = function
  | Deliver { src; dst } -> f k_deliver src dst
  | Drop { src; dst } -> f k_drop src dst
  | Duplicate { src; dst } -> f k_duplicate src dst
  | Defer { src; dst } -> f k_defer src dst
  | Crash pid -> f k_crash pid 0
  | Enter pid -> f k_enter pid 0
  | Leave pid -> f k_leave pid 0

let action_of_code c =
  let k = code_kind c and a = code_a c and b = code_b c in
  if k = k_deliver then Deliver { src = a; dst = b }
  else if k = k_drop then Drop { src = a; dst = b }
  else if k = k_duplicate then Duplicate { src = a; dst = b }
  else if k = k_defer then Defer { src = a; dst = b }
  else if k = k_crash then Crash a
  else if k = k_enter then Enter a
  else Leave a

(* The one printer of the action grammar, on opcode fields: the fleet
   prints every corpus line straight from packed plans, without [Format]
   and with operands from a table built on first use. *)
let keywords =
  [| "deliver "; "drop "; "dup "; "defer "; "crash "; "enter "; "leave " |]

let small_ints = lazy (Array.init 256 string_of_int)

let int_str i =
  if i >= 0 && i < 256 then (Lazy.force small_ints).(i) else string_of_int i

let add_action buf k a b =
  Buffer.add_string buf keywords.(k);
  Buffer.add_string buf (int_str a);
  if k < k_crash then (Buffer.add_char buf '>'; Buffer.add_string buf (int_str b))

let action_to_string act =
  let buf = Buffer.create 16 in
  with_fields (add_action buf) act;
  Buffer.contents buf

let pp_action ppf a = Format.pp_print_string ppf (action_to_string a)

let pp_plan ppf plan =
  Format.fprintf ppf "@[<hov>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_action)
    plan

let deliveries plan =
  List.fold_left
    (fun k -> function Deliver _ -> k + 1 | _ -> k)
    0 plan

(* {2 Plan codecs}

   The corpus files of the chaos fleet must be human-editable, so the
   serialized form of an action is exactly what [action_to_string]
   prints — the grammar quoted in EXPERIMENTS.md — and a plan is a JSON
   array of action strings (one corpus line). Parsing an action accepts
   blanks around it and around its operands. *)

(* Scanners of the printer's own form, top-level so that they allocate
   nothing; [action_of_string] and [scan_compiled_json] share them. *)
let rec index_of c s i j =
  if i >= j || s.[i] = c then i else index_of c s (i + 1) j

let rec has_prefix s i p k =
  k = String.length p
  || (i + k < String.length s && s.[i + k] = p.[k] && has_prefix s i p (k + 1))

let rec keyword_kind s i k =
  if k > k_leave || has_prefix s i keywords.(k) 0 then k
  else keyword_kind s i (k + 1)

(* [s.[i..j)] as a decimal below 260, or -1; [acc] starts at -1. *)
let rec decimal s i j acc =
  if i >= j then acc
  else if s.[i] >= '0' && s.[i] <= '9' && acc < 26 then
    decimal s (i + 1) j ((max acc 0 * 10) + Char.code s.[i] - 48)
  else -1

(* The opcode of [s.[i..j)] in the printer's form, operands up to 255;
   -1 for any other spelling. *)
let scan_action s i j =
  let k = keyword_kind s i 0 in
  let i = if k > k_leave then j else i + String.length keywords.(k) in
  let g = if k < k_crash then index_of '>' s i j else j in
  let a = decimal s i g (-1) in
  let b = if k < k_crash then decimal s (g + 1) j (-1) else 0 in
  if a >= 0 && a < 256 && b >= 0 && b < 256 then encode k a b else -1

let action_of_string s =
  (* Anything but the printer's form (padding, signs, radix prefixes)
     takes the general path, which alone decides errors. *)
  let c = scan_action s 0 (String.length s) in
  if c >= 0 then Ok (action_of_code c)
  else
    let s = String.trim s in
    let fail fmt = Printf.ksprintf (fun e -> Error e) fmt in
    match String.index_opt s ' ' with
    | None -> fail "cannot parse action %S: expected \"keyword arg\"" s
    | Some i -> (
        let kw = String.sub s 0 i in
        let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
        let channel k =
          match String.index_opt rest '>' with
          | None -> fail "bad channel %S after %S: expected src>dst" rest kw
          | Some j -> (
              let src = String.trim (String.sub rest 0 j) in
              let dst =
                String.trim (String.sub rest (j + 1) (String.length rest - j - 1))
              in
              match (int_of_string_opt src, int_of_string_opt dst) with
              | Some src, Some dst -> Ok (k { src; dst })
              | None, _ -> fail "bad channel source %S after %S" src kw
              | _, None -> fail "bad channel destination %S after %S" dst kw)
        in
        let pid k =
          match int_of_string_opt rest with
          | Some p -> Ok (k p)
          | None -> fail "bad pid %S after %S" rest kw
        in
        match kw with
        | "deliver" -> channel (fun ch -> Deliver ch)
        | "drop" -> channel (fun ch -> Drop ch)
        | "dup" -> channel (fun ch -> Duplicate ch)
        | "defer" -> channel (fun ch -> Defer ch)
        | "crash" -> pid (fun p -> Crash p)
        | "enter" -> pid (fun p -> Enter p)
        | "leave" -> pid (fun p -> Leave p)
        | _ -> fail "unknown action keyword %S in %S" kw s)

let plan_to_json plan =
  Obs.Json.List (List.map (fun a -> Obs.Json.Str (action_to_string a)) plan)

let plan_of_json j =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
        match Option.map action_of_string (Obs.Json.to_str item) with
        | None -> Error (Printf.sprintf "plan element %d is not a string" i)
        | Some (Ok a) -> go (i + 1) (a :: acc) rest
        | Some (Error e) -> Error (Printf.sprintf "plan element %d: %s" i e))
  in
  match Obs.Json.to_list j with
  | None -> Error "plan is not a JSON array"
  | Some items -> go 0 [] items

type code = int
type compiled = code array

(* Action text needs no JSON escaping: each element goes between quotes. *)
let add_compiled_json buf c =
  Array.iteri
    (fun i code ->
      Buffer.add_string buf (if i = 0 then "[\"" else ",\"");
      add_action buf (code_kind code) (code_a code) (code_b code);
      Buffer.add_char buf '"')
    c;
  Buffer.add_string buf (if Array.length c = 0 then "[]" else "]")

let scan_compiled_json ~n s i j =
  (* An element and its separator take at least 10 bytes. *)
  let codes = Array.make (((j - i) / 10) + 1) 0 and len = ref 0 in
  let rec elements p =
    (p + 1 = j && s.[p] = ']' && !len = 0)
    || p < j && s.[p] = '"' && !len < Array.length codes
    &&
    let q = index_of '"' s (p + 1) j in
    let c = if q + 1 < j then scan_action s (p + 1) q else -1 in
    c >= 0 && code_a c < n && code_b c < n
    && begin
         codes.(!len) <- c;
         incr len;
         if s.[q + 1] = ',' then elements (q + 2)
         else s.[q + 1] = ']' && q + 2 = j
       end
  in
  if i < j && s.[i] = '[' && elements (i + 1) then
    Some (Array.sub codes 0 !len)
  else None

(* Why [a] cannot run in a universe of [n] slots, if it cannot. *)
let operand_error ~n =
  let bad pid = pid < 0 || pid >= n in
  with_fields (fun k a b ->
      if k < k_crash then
        if bad a || bad b then
          Some (Printf.sprintf "channel %d>%d out of range" a b)
        else None
      else if bad a then Some (Printf.sprintf "pid %d out of range" a)
      else None)

let check ~n plan =
  let rec go i = function
    | [] -> Ok ()
    | a :: rest -> (
        match operand_error ~n a with
        | Some e -> Error (Printf.sprintf "action %d: %s (n = %d)" i e n)
        | None -> go (i + 1) rest)
  in
  go 1 plan

let compile ~n plan =
  Array.of_list
    (List.map
       (fun a ->
         Option.iter
           (fun e -> invalid_arg ("Faults.compile: " ^ e))
           (operand_error ~n a);
         with_fields encode a)
       plan)

let decompile compiled =
  Array.fold_right (fun c l -> action_of_code c :: l) compiled []

let compiled_deliveries compiled =
  let k = ref 0 in
  Array.iter (fun c -> if code_kind c = k_deliver then incr k) compiled;
  !k

let compiled_hash (c : compiled) =
  Array.fold_left
    (fun h code -> Sched.Zobrist.combine h (code + 1))
    (Array.length c) c

let compiled_equal (a : compiled) (b : compiled) =
  a == b
  || Array.length a = Array.length b
     && begin
          let n = Array.length a in
          let i = ref 0 in
          while !i < n && a.(!i) = b.(!i) do incr i done;
          !i = n
        end

(* {2 Plan mutation}

   The fleet's mutation engine works on opcodes directly. Every draw
   happens in the order of the historical action-level mutator, so the
   published fleet corpora and reports are unchanged: a random channel
   draws its destination before its source (that mutator built the
   record [{ src; dst }], which ocamlopt evaluates right to left). *)

let random_channel rng k n =
  let dst = Bits.Rng.int rng n in
  encode k (Bits.Rng.int rng n) dst

let random_pid rng k n = encode k (Bits.Rng.int rng n) 0

(* The churn flag widens the grammar with enter/leave. It is off for
   static-membership configs so their mutation rng streams are untouched
   by the grammar's existence. *)
let random_code rng ~churn n =
  match Bits.Rng.int rng (if churn then 10 else 8) with
  | 0 | 1 | 2 | 3 -> random_channel rng k_deliver n
  | 4 -> random_channel rng k_drop n
  | 5 -> random_channel rng k_duplicate n
  | 6 -> random_channel rng k_defer n
  | 7 -> random_pid rng k_crash n
  | 8 -> random_pid rng k_enter n
  | _ -> random_pid rng k_leave n

(* Kind-preserving, so static plans (which never contain enter/leave)
   draw exactly as before the churn grammar existed. *)
let rekind rng n c =
  let k = code_kind c in
  if k < k_crash then random_channel rng k n else random_pid rng k n

let mutate rng ~n ?(churn = false) plan =
  (* A copy: the perturb operator edits in place, and the parent is a
     live corpus entry. *)
  let a = ref (Array.copy plan) in
  let len () = Array.length !a in
  let remove start k =
    a :=
      Array.append (Array.sub !a 0 start)
        (Array.sub !a (start + k) (len () - start - k))
  in
  let insert at seg =
    a := Array.concat [ Array.sub !a 0 at; seg; Array.sub !a at (len () - at) ]
  in
  let run_at () =
    let start = Bits.Rng.int rng (len ()) in
    (start, 1 + Bits.Rng.int rng (min 8 (len () - start)))
  in
  (* A fresh crash draws its pid before its position. *)
  let insert_crash () =
    let crash = [| random_pid rng k_crash n |] in
    insert (Bits.Rng.int rng (len () + 1)) crash
  in
  let rounds = 1 + Bits.Rng.int rng 3 in
  for _ = 1 to rounds do
    match Bits.Rng.int rng 6 with
    (* splice a run out *)
    | 0 when len () > 0 ->
        let start, k = run_at () in
        remove start k
    (* duplicate a run elsewhere *)
    | 1 when len () > 0 ->
        let start, k = run_at () in
        let seg = Array.sub !a start k in
        insert (Bits.Rng.int rng (len () + 1)) seg
    (* move a run *)
    | 2 when len () > 1 ->
        let start, k = run_at () in
        let seg = Array.sub !a start k in
        remove start k;
        insert (Bits.Rng.int rng (len () + 1)) seg
    (* perturb one action: same kind, fresh endpoints / crash pid *)
    | 3 when len () > 0 ->
        let i = Bits.Rng.int rng (len ()) in
        !a.(i) <- rekind rng n !a.(i)
    (* perturb a crash: retarget and reposition one, or inject one at a
       random index when the plan has none. Candidates are listed last
       index first, the order the historical mutator picked from. *)
    | 4 when len () > 0 ->
        let crashes = ref [] in
        Array.iteri
          (fun i c -> if code_kind c = k_crash then crashes := i :: !crashes)
          !a;
        if !crashes <> [] then remove (Bits.Rng.pick rng !crashes) 1;
        insert_crash ()
    (* insert fresh random actions *)
    | _ ->
        let seg =
          Array.init (1 + Bits.Rng.int rng 4) (fun _ -> random_code rng ~churn n)
        in
        insert (Bits.Rng.int rng (len () + 1)) seg
  done;
  !a

let crossover rng a b =
  if Array.length a = 0 then b
  else if Array.length b = 0 then a
  else begin
    let i = Bits.Rng.int rng (Array.length a + 1) in
    let j = Bits.Rng.int rng (Array.length b + 1) in
    Array.append (Array.sub a 0 i) (Array.sub b j (Array.length b - j))
  end

type profile = {
  drop : float;
  duplicate : float;
  defer : float;
  delay : float;
  delay_span : int;
  max_channel_drops : int;
  crash_at : (int * int) list;
  enter_at : (int * int) list;
  leave_at : (int * int) list;
}

let reliable =
  {
    drop = 0.;
    duplicate = 0.;
    defer = 0.;
    delay = 0.;
    delay_span = 0;
    max_channel_drops = max_int;
    crash_at = [];
    enter_at = [];
    leave_at = [];
  }

(* The wrapper's own state is flat: the recording is a growable int
   array of opcodes, and the per-channel freeze/drop-budget matrices are
   single [n * n] arrays. [chans]/[chans2] are the scratch buffers the
   random driver fills via {!Net.deliverable_into} — the only heap the
   driver touches after [wrap], which makes a pooled wrapper's steady
   state allocation-free. Nor does it branch on random data per channel:
   the frozen filter, like the scan, stores every candidate and advances
   its count by a 0/1 flag (DESIGN.md, "Message-passing fast path"). *)
type 'm t = {
  net : 'm Net.t;
  size : int;
  mutable rec_buf : int array;  (** opcodes, oldest first; [events] used *)
  mutable events : int;
  frozen : int array;  (** flat [n*n]: channel thaws at this event index *)
  mutable max_thaw : int;
      (** latest thaw index issued: when [events >= max_thaw] no channel
          is frozen and the per-step unfrozen filter is skipped *)
  drops : int array;  (** flat [n*n]: drops spent per channel *)
  chans : int array;  (** scratch: deliverable channel codes *)
  chans2 : int array;  (** scratch: unfrozen subset *)
}

let wrap net =
  let n = Net.n net in
  {
    net;
    size = n;
    rec_buf = Array.make 256 0;
    events = 0;
    frozen = Array.make (n * n) 0;
    max_thaw = 0;
    drops = Array.make (n * n) 0;
    chans = Array.make (n * n) 0;
    chans2 = Array.make (n * n) 0;
  }

let reset t =
  t.events <- 0;
  t.max_thaw <- 0;
  Array.fill t.frozen 0 (t.size * t.size) 0;
  Array.fill t.drops 0 (t.size * t.size) 0

let net t = t.net
let events t = t.events

let compiled_plan t = Array.sub t.rec_buf 0 t.events

let record t code =
  if t.events = Array.length t.rec_buf then begin
    let nb = Array.make (2 * Array.length t.rec_buf) 0 in
    Array.blit t.rec_buf 0 nb 0 t.events;
    t.rec_buf <- nb
  end;
  t.rec_buf.(t.events) <- code;
  t.events <- t.events + 1

let apply_code t k a b =
  let effective =
    if k = k_deliver then Net.deliver t.net ~src:a ~dst:b
    else if k = k_drop then
      if Net.drop t.net ~src:a ~dst:b then begin
        let ch = (a * t.size) + b in
        t.drops.(ch) <- t.drops.(ch) + 1;
        true
      end
      else false
    else if k = k_duplicate then Net.duplicate t.net ~src:a ~dst:b
    else if k = k_defer then Net.defer t.net ~src:a ~dst:b
    else if k = k_crash then
      if Net.alive t.net a then begin
        Net.crash t.net a;
        true
      end
      else false
    else if k = k_enter then Net.enter t.net a
    else Net.leave t.net a
  in
  if effective then record t (encode k a b);
  effective

(* Schedule firing, as top-level recursions rather than closures: the
   random driver re-checks every entry each step, and a per-step closure
   allocation is exactly the kind of litter the flat rewrite removes. *)
let rec fire_enters t = function
  | [] -> ()
  | (pid, at) :: rest ->
      if t.events >= at && not (Net.is_present t.net pid) then
        ignore (apply_code t k_enter pid 0);
      fire_enters t rest

let rec fire_leaves t = function
  | [] -> ()
  | (pid, at) :: rest ->
      if t.events >= at && Net.is_present t.net pid then
        ignore (apply_code t k_leave pid 0);
      fire_leaves t rest

let rec fire_crashes t = function
  | [] -> ()
  | (pid, at) :: rest ->
      if t.events >= at && Net.alive t.net pid then
        ignore (apply_code t k_crash pid 0);
      fire_crashes t rest

let step_random rng profile t =
  (* Due schedule entries fire before the event roll: enters first (a
     joiner must exist before the same step can crash or depart it),
     then leaves, then crashes. [apply_code] refuses and records nothing
     when an entry already fired, so re-checking every step is
     idempotent. *)
  fire_enters t profile.enter_at;
  fire_leaves t profile.leave_at;
  fire_crashes t profile.crash_at;
  let all = Net.deliverable_into t.net t.chans in
  if all = 0 then false
  else begin
    let cand, cnt =
      if t.events >= t.max_thaw then (t.chans, all)
      else begin
        let unfrozen = ref 0 in
        for i = 0 to all - 1 do
          let c = t.chans.(i) in
          t.chans2.(!unfrozen) <- c;
          unfrozen := !unfrozen + Bool.to_int (t.frozen.(c) <= t.events)
        done;
        (* All channels frozen: thaw by decree rather than livelock. *)
        if !unfrozen = 0 then (t.chans, all) else (t.chans2, !unfrozen)
      end
    in
    let ci = Bits.Rng.int rng cnt in
    let ch = cand.(ci) in
    let src = ch / t.size and dst = ch mod t.size in
    (* The dice are compared in fixed-point: [Rng.float t < p] is exactly
       [float_of_int (Rng.bits53 t) < p *. 2^53] (see {!Bits.Rng.bits53}),
       and the unboxed comparison keeps the hot loop allocation-free
       while drawing the identical stream the recorded seeds expect. *)
    let scale = 9007199254740992. (* 2^53 *) in
    let u = float_of_int (Bits.Rng.bits53 rng) in
    let p_drop =
      if t.drops.(ch) < profile.max_channel_drops then profile.drop else 0.
    in
    if u < p_drop *. scale then ignore (apply_code t k_drop src dst)
    else if u < (p_drop +. profile.duplicate) *. scale then
      ignore (apply_code t k_duplicate src dst)
    else if
      u < (p_drop +. profile.duplicate +. profile.defer) *. scale
      && Net.pending t.net ~src ~dst >= 2
    then ignore (apply_code t k_defer src dst)
    else if float_of_int (Bits.Rng.bits53 rng) < profile.delay *. scale
    then begin
      (* Delay burst: freeze this channel and serve another if any.
         Channels are unique in the candidate buffer, so "the candidates
         minus the chosen one" is index [ci] skipped — the same set, in
         the same order, as the historical list filter. *)
      let thaw = t.events + max 1 profile.delay_span in
      t.frozen.(ch) <- thaw;
      if thaw > t.max_thaw then t.max_thaw <- thaw;
      if cnt = 1 then ignore (apply_code t k_deliver src dst)
      else begin
        let j = Bits.Rng.int rng (cnt - 1) in
        let ch' = cand.(if j >= ci then j + 1 else j) in
        ignore (apply_code t k_deliver (ch' / t.size) (ch' mod t.size))
      end
    end
    else ignore (apply_code t k_deliver src dst);
    true
  end

let run_random ~rng ~profile ?(max_events = 100_000) t =
  let rec loop budget =
    if budget > 0 && step_random rng profile t then loop (budget - 1)
  in
  loop max_events

let replay_compiled t compiled =
  for i = 0 to Array.length compiled - 1 do
    let c = compiled.(i) in
    ignore (apply_code t (code_kind c) (code_a c) (code_b c))
  done
