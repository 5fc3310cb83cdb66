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

(* The one printer of the action grammar, on opcode fields, into bytes:
   [put_action b p k x y] writes the action at [b.[p..]] and returns its
   end. The keyword goes as one 8-byte store of its zero-padded bytes
   (the operands overwrite the padding), so [b] needs 8 bytes of room at
   [p]; the scanner compares the same word under the keyword's mask. *)
let keywords =
  [| "deliver "; "drop "; "dup "; "defer "; "crash "; "enter "; "leave " |]

let keyword_words =
  Array.map (fun kw -> String.get_int64_le (kw ^ "\000\000\000\000") 0)
    keywords

let keyword_masks =
  Array.map
    (fun kw -> Int64.shift_right_logical (-1L) (64 - (8 * String.length kw)))
    keywords

let rec put_int b p x =
  if x < 0 then (
    let d = string_of_int x in
    Bytes.blit_string d 0 b p (String.length d);
    p + String.length d)
  else
    let p = if x >= 10 then put_int b p (x / 10) else p in
    Bytes.set b p (Char.unsafe_chr (48 + (x mod 10)));
    p + 1

let put_action b p k x y =
  Bytes.set_int64_le b p keyword_words.(k);
  let p = put_int b (p + String.length keywords.(k)) x in
  if k < k_crash then (
    Bytes.set b p '>';
    put_int b (p + 1) y)
  else p

(* A keyword and two operands of up to 20 characters each. *)
let action_to_string act =
  let b = Bytes.create 64 in
  Bytes.sub_string b 0 (with_fields (put_action b 0) act)

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

let action_of_string s =
  let s = String.trim s in
  let fail fmt = Printf.ksprintf (fun e -> Error e) fmt in
  match String.index_opt s ' ' with
  | None -> fail "cannot parse action %S: expected \"keyword arg\"" s
  | Some i -> (
      let kw = String.sub s 0 i in
      let rest =
        String.trim (String.sub s (i + 1) (String.length s - i - 1))
      in
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

(* Each plan's text is built in a per-domain scratch and appended whole.
   Action text needs no JSON escaping: each element goes between quotes.
   An element takes at most 18 bytes ([,"deliver 255>255"]). *)
let line_scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096))

let add_compiled_json buf c =
  let scratch = Domain.DLS.get line_scratch in
  if Bytes.length !scratch <= 18 * Array.length c then
    scratch := Bytes.create ((36 * Array.length c) + 1);
  let b = !scratch and p = ref 0 in
  for i = 0 to Array.length c - 1 do
    Bytes.set b !p ',';
    Bytes.set b (!p + 1) '"';
    let k = code_kind c.(i) and x = code_a c.(i) and y = code_b c.(i) in
    p := put_action b (!p + 2) k x y + 1;
    Bytes.set b (!p - 1) '"'
  done;
  if !p = 0 then Buffer.add_string buf "[]"
  else (
    Bytes.set b 0 '[';
    Bytes.set b !p ']';
    Buffer.add_subbytes buf b 0 (!p + 1))

(* The corpus scanner of the printer's own form, allocating nothing.
   [keyword_at] is the kind whose keyword [s.[i..j)] starts with, or -1,
   read as one 8-byte word: [s] must hold 8 bytes from [i]. *)
let keyword_at s i j =
  let w = if i + 8 <= String.length s then String.get_int64_le s i else 0L in
  let k = ref k_deliver in
  while
    !k <= k_leave && Int64.logand w keyword_masks.(!k) <> keyword_words.(!k)
  do
    incr k
  done;
  if !k <= k_leave && i + String.length keywords.(!k) <= j then !k else -1

let opcode_bits = 19

(* The opcode of kind [k] whose operands start at [s.[p..j)], with the
   end of the action above its 19 bits (no tuple to allocate), or -1.
   [acc] is the operand being read: -1 before its first digit, and no
   digit may follow a value of 26 or more. [a] is the first operand of
   a channel once a '>' has closed it. *)
let rec operands s p j k a acc =
  let c = if p < j then s.[p] else ' ' in
  if c >= '0' && c <= '9' && acc < 26 then
    operands s (p + 1) j k a ((Int.max acc 0 * 10) + Char.code c - 48)
  else if c = '>' && k < k_crash && a < 0 && acc >= 0 then
    operands s (p + 1) j k acc (-1)
  else
    let x = if k < k_crash then a else acc in
    let y = if k < k_crash then acc else 0 in
    if x >= 0 && x < 256 && y >= 0 && y < 256 then
      encode k x y lor (p lsl opcode_bits)
    else -1

(* How many elements [s.[p..j)] holds, read into [codes.(len..)] up to a
   closing bracket at [j - 1], or -1. Tail calls, no closure. *)
let rec elements ~n s j codes p len =
  let k =
    if p < j && s.[p] = '"' && len < Array.length codes then
      keyword_at s (p + 1) j
    else -1
  in
  let r =
    if k < 0 then -1
    else operands s (p + 1 + String.length keywords.(k)) j k (-1) (-1)
  in
  let c = r land ((1 lsl opcode_bits) - 1) and q = r lsr opcode_bits in
  if r < 0 || q + 1 >= j || s.[q] <> '"' || code_a c >= n || code_b c >= n
  then -1
  else (
    codes.(len) <- c;
    if s.[q + 1] = ',' then elements ~n s j codes (q + 2) (len + 1)
    else if s.[q + 1] = ']' && q + 2 = j then len + 1
    else -1)

let scan_compiled_json ~n s i j =
  if i < 0 || j > String.length s then invalid_arg "Faults.scan_compiled_json";
  (* An element and its separator take at least 10 bytes. *)
  let codes = Array.make ((Int.max 0 (j - i) / 10) + 1) 0 in
  let len =
    if i + 2 = j && s.[i] = '[' && s.[i + 1] = ']' then 0
    else if i < j && s.[i] = '[' then elements ~n s j codes (i + 1) 0
    else -1
  in
  if len < 0 then None else Some (Array.sub codes 0 len)

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

let compiled_deliveries (c : compiled) =
  let k = ref 0 in
  for i = 0 to Array.length c - 1 do
    if code_kind c.(i) = k_deliver then incr k
  done;
  !k

let compiled_hash (c : compiled) =
  let h = ref (Array.length c) in
  for i = 0 to Array.length c - 1 do
    h := Sched.Zobrist.combine !h (c.(i) + 1)
  done;
  !h

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
  let pick_run () =
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
        let start, k = pick_run () in
        remove start k
    (* duplicate a run elsewhere *)
    | 1 when len () > 0 ->
        let start, k = pick_run () in
        let seg = Array.sub !a start k in
        insert (Bits.Rng.int rng (len () + 1)) seg
    (* move a run *)
    | 2 when len () > 1 ->
        let start, k = pick_run () in
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
