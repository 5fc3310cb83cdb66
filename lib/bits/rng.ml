(* The state is eight little-endian bytes rather than a mutable [int64]
   record field: storing into a boxed-[int64] field allocates a fresh box
   per draw (measured 6-8 minor words), which the chaos and fleet hot
   paths cannot afford. [Bytes.get_int64_le]/[set_int64_le] compile to
   unboxed loads/stores, and [step] is inlined into each draw, so every
   intermediate stays in registers; the emitted stream is bit-identical
   to the historical record-based implementation. *)
type t = Bytes.t

let of_state state =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 state;
  b

let make seed = of_state (Int64.of_int seed)
let copy t = Bytes.copy t

(* splitmix64: fast, well-distributed, and trivially reproducible. *)
let[@inline] step t =
  let open Int64 in
  let s = add (Bytes.get_int64_le t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_le t 0 s;
  let z = mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = of_state (step t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (Int64.to_int (Int64.shift_right_logical (step t) 1) land max_int) mod bound

let bool t = Int64.to_int (step t) land 1 = 1

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11) land max_int

let float t = float_of_int (bits53 t) /. float_of_int (1 lsl 53)

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
