type 'i view =
  | Input of { pid : int; value : 'i }
  | Observed of { pid : int; seen : 'i view Views.vector }

let pid = function Input { pid; _ } -> pid | Observed { pid; _ } -> pid

let rec equal eq_i a b =
  match (a, b) with
  | Input a, Input b -> a.pid = b.pid && eq_i a.value b.value
  | Observed a, Observed b ->
      a.pid = b.pid
      && Array.length a.seen = Array.length b.seen
      && Array.for_all (fun ok -> ok)
           (Array.mapi
              (fun j entry ->
                match (entry, b.seen.(j)) with
                | None, None -> true
                | Some x, Some y -> equal eq_i x y
                | None, Some _ | Some _, None -> false)
              a.seen)
  | Input _, Observed _ | Observed _, Input _ -> false

let rec pp pp_i ppf = function
  | Input { pid; value } -> Format.fprintf ppf "p%d:%a" pid pp_i value
  | Observed { pid; seen } ->
      Format.fprintf ppf "p%d:%a" pid (Views.pp (pp pp_i)) seen

let rec depth = function
  | Input _ -> 0
  | Observed { seen; _ } ->
      let deepest =
        Array.fold_left
          (fun acc entry ->
            match entry with None -> acc | Some v -> max acc (depth v))
          0 seen
      in
      deepest + 1

let protocol ~rounds ~me ~input ~decide =
  let rec go r view =
    if r > rounds then Proto.Decide (decide view)
    else
      Proto.Round
        (view, fun seen -> go (r + 1) (Observed { pid = me; seen }))
  in
  go 1 (Input { pid = me; value = input })

let rec replay ~make view =
  match view with
  | Input { pid; value } -> make ~pid ~input:value
  | Observed { pid; seen } -> (
      let own =
        match seen.(pid) with
        | Some prior -> prior
        | None -> invalid_arg "Full_info.replay: view not self-contained"
      in
      match replay ~make own with
      | Proto.Decide _ ->
          invalid_arg "Full_info.replay: process observed after deciding"
      | Proto.Round (_, k) ->
          let entry j =
            match seen.(j) with
            | None -> None
            | Some prior -> (
                match replay ~make prior with
                | Proto.Decide _ ->
                    invalid_arg
                      "Full_info.replay: process observed after deciding"
                | Proto.Round (w, _) -> Some w)
          in
          k (Array.init (Array.length seen) entry))

let unbounded = Bits.Width.unbounded
