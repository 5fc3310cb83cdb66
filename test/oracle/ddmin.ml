(* List delta debugging: the reference for [Check.Shrink]. This is the
   shrinker every published witness and replay count was recorded with —
   chunks and complements rebuilt as lists, no sharing with the array
   version's arithmetic — so the differential test in test_check can hold
   the array shrinker to the same candidates, in the same order. *)

(* Split [xs] into [n] contiguous chunks of near-equal length. *)
let chunks n xs =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec take k xs =
    if k = 0 then ([], xs)
    else
      match xs with
      | [] -> ([], [])
      | x :: rest ->
          let taken, left = take (k - 1) rest in
          (x :: taken, left)
  in
  let rec go i xs =
    if i >= n || xs = [] then []
    else
      let size = base + if i < extra then 1 else 0 in
      let c, rest = take size xs in
      c :: go (i + 1) rest
  in
  go 0 xs

let rec remove_chunk i = function
  | [] -> []
  | c :: rest -> if i = 0 then rest else c :: remove_chunk (i - 1) rest

let ddmin_count ~test xs =
  let tests = ref 0 in
  let test xs =
    incr tests;
    test xs
  in
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 || n > len then xs
    else begin
      let cs = chunks n xs in
      (* Reduce to a single failing chunk... *)
      match List.find_opt test cs with
      | Some c -> go c 2
      | None -> (
          (* ...or to the complement of one chunk. *)
          let rec complements i =
            if i >= List.length cs then None
            else
              let comp = List.concat (remove_chunk i cs) in
              if test comp then Some comp else complements (i + 1)
          in
          match complements 0 with
          | Some comp -> go comp (max (n - 1) 2)
          | None -> if n < len then go xs (min len (2 * n)) else xs)
    end
  in
  if not (test xs) then (xs, !tests)
  else begin
    let shrunk = go xs 2 in
    (shrunk, !tests)
  end

let ddmin ~test xs = fst (ddmin_count ~test xs)

(* Drop element [i] and element [j] (i < j). *)
let without2 i j xs =
  List.filteri (fun k _ -> k <> i && k <> j) xs

let minimize_count ~test xs =
  let tests = ref 0 in
  let counted xs =
    incr tests;
    test xs
  in
  let start, dd = ddmin_count ~test xs in
  tests := dd;
  (* ddmin is 1-minimal; a pair-elimination pass catches mutually-dependent
     leftovers (an action and its compensation that only fail together),
     which matters for fault plans where e.g. a duplicate and the delivery
     of its copy survive chunk removal as a pair. *)
  let rec pairs xs =
    let len = List.length xs in
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < len - 1 do
      let j = ref (!i + 1) in
      while !found = None && !j < len do
        let candidate = without2 !i !j xs in
        if counted candidate then found := Some candidate;
        incr j
      done;
      incr i
    done;
    match !found with
    | Some smaller -> pairs (ddmin ~test:counted smaller)
    | None -> xs
  in
  let result = pairs start in
  (result, !tests)
