module Q = Bits.Rational

let denominator ~rounds = 1 lsl rounds

let midpoint view =
  let values =
    Array.to_list view |> List.filter_map (fun entry -> entry)
  in
  match values with
  | [] -> assert false (* self-containment: own estimate always present *)
  | v :: vs ->
      let lo = List.fold_left Q.min v vs and hi = List.fold_left Q.max v vs in
      Q.mul Q.half (Q.add lo hi)

let protocol ~rounds ~input =
  let rec go r est =
    if r > rounds then Proto.Decide est
    else Proto.Round (est, fun view -> go (r + 1) (midpoint view))
  in
  go 1 (Q.of_int input)
