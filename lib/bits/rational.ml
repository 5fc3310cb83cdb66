type t = { num : int; den : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let make num den =
  if den = 0 then raise Division_by_zero;
  let sign = if den < 0 then -1 else 1 in
  let num = sign * num and den = sign * den in
  let g = gcd (Stdlib.abs num) den in
  if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let half = make 1 2
let num t = t.num
let den t = t.den

(* Intermediate products can overflow 63-bit ints only for denominators far
   beyond anything the experiments use (k <= 3^20); no overflow guard. *)
let add a b = make ((a.num * b.den) + (b.num * a.den)) (a.den * b.den)
let sub a b = make ((a.num * b.den) - (b.num * a.den)) (a.den * b.den)
let mul a b = make (a.num * b.num) (a.den * b.den)

let div a b =
  if b.num = 0 then raise Division_by_zero;
  make (a.num * b.den) (a.den * b.num)

let abs a = { a with num = Stdlib.abs a.num }
let compare a b = Stdlib.compare (a.num * b.den) (b.num * a.den)
let equal a b = compare a b = 0
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let min a b = if a <= b then a else b
let max a b = if a >= b then a else b

let spread = function
  | [] -> zero
  | v :: vs ->
      let lo = List.fold_left min v vs and hi = List.fold_left max v vs in
      sub hi lo

let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a
