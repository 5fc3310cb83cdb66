(* The corpus plan codec as it was before it went byte-at-a-time, kept as
   a differential oracle for [Msgpass.Faults.add_compiled_json] and
   [scan_compiled_json]: the printer appends each action's keyword and
   operands to the [Buffer] one call at a time, and the scanner reads
   one bounds-checked byte per recursive call, trying the keywords in
   order. Both work on the action list ([Faults.decompile] /
   [Faults.compile]), so they share nothing with the opcode layout. *)

module F = Msgpass.Faults

let keywords =
  [| "deliver "; "drop "; "dup "; "defer "; "crash "; "enter "; "leave " |]

let k_crash = 4

let fields = function
  | F.Deliver { src; dst } -> (0, src, dst)
  | F.Drop { src; dst } -> (1, src, dst)
  | F.Duplicate { src; dst } -> (2, src, dst)
  | F.Defer { src; dst } -> (3, src, dst)
  | F.Crash pid -> (4, pid, 0)
  | F.Enter pid -> (5, pid, 0)
  | F.Leave pid -> (6, pid, 0)

let action k a b =
  let ch = { F.src = a; dst = b } in
  match k with
  | 0 -> F.Deliver ch
  | 1 -> F.Drop ch
  | 2 -> F.Duplicate ch
  | 3 -> F.Defer ch
  | 4 -> F.Crash a
  | 5 -> F.Enter a
  | _ -> F.Leave a

let add_action buf (k, a, b) =
  Buffer.add_string buf keywords.(k);
  Buffer.add_string buf (string_of_int a);
  if k < k_crash then (
    Buffer.add_char buf '>';
    Buffer.add_string buf (string_of_int b))

let add_compiled_json buf c =
  List.iteri
    (fun i a ->
      Buffer.add_string buf (if i = 0 then "[\"" else ",\"");
      add_action buf (fields a);
      Buffer.add_char buf '"')
    (F.decompile c);
  Buffer.add_string buf (if Array.length c = 0 then "[]" else "]")

let rec index_of c s i j =
  if i >= j || s.[i] = c then i else index_of c s (i + 1) j

let rec has_prefix s i p k =
  k = String.length p
  || (i + k < String.length s && s.[i + k] = p.[k] && has_prefix s i p (k + 1))

let rec keyword_kind s i k =
  if k > 6 || has_prefix s i keywords.(k) 0 then k
  else keyword_kind s i (k + 1)

(* [s.[i..j)] as a decimal below 260, or -1; [acc] starts at -1. *)
let rec decimal s i j acc =
  if i >= j then acc
  else if s.[i] >= '0' && s.[i] <= '9' && acc < 26 then
    decimal s (i + 1) j ((max acc 0 * 10) + Char.code s.[i] - 48)
  else -1

(* [(kind, a, b)] of [s.[i..j)] in the printer's form, operands up to
   255. *)
let scan_action s i j =
  let k = keyword_kind s i 0 in
  let i = if k > 6 then j else i + String.length keywords.(k) in
  let g = if k < k_crash then index_of '>' s i j else j in
  let a = decimal s i g (-1) in
  let b = if k < k_crash then decimal s (g + 1) j (-1) else 0 in
  if a >= 0 && a < 256 && b >= 0 && b < 256 then Some (k, a, b) else None

let scan_compiled_json ~n s i j =
  let acts = ref [] and len = ref 0 and cap = ((j - i) / 10) + 1 in
  let rec elements p =
    (p + 1 = j && s.[p] = ']' && !len = 0)
    || p < j && s.[p] = '"' && !len < cap
    &&
    let q = index_of '"' s (p + 1) j in
    match if q + 1 < j then scan_action s (p + 1) q else None with
    | Some (k, a, b) when a < n && b < n ->
        acts := action k a b :: !acts;
        incr len;
        if s.[q + 1] = ',' then elements (q + 2)
        else s.[q + 1] = ']' && q + 2 = j
    | _ -> false
  in
  if i < j && s.[i] = '[' && elements (i + 1) then
    Some (F.compile ~n (List.rev !acts))
  else None
