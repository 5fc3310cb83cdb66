type budget = Bounded of int | Unbounded

exception Overflow of { budget : int; needed : int }

let check budget needed =
  match budget with
  | Unbounded -> ()
  | Bounded b -> if needed > b then raise (Overflow { budget = b; needed })

let bits_for n =
  if n < 0 then invalid_arg "Width.bits_for: negative";
  let rec loop acc v = if v = 0 then acc else loop (acc + 1) (v lsr 1) in
  loop 0 n

type 'a measure = 'a -> int

let bit (_ : bool) = 1

let uint ~max v =
  if v < 0 || v > max then
    invalid_arg (Printf.sprintf "Width.uint: %d outside [0..%d]" v max);
  bits_for max

let enum ~cardinal _ = bits_for (cardinal - 1)
let option m = function None -> 1 | Some v -> 1 + m v
let pair ma mb (a, b) = ma a + mb b
let unbounded _ = 0
