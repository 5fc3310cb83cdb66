type 'v vector = 'v option array

let subseteq ~equal v v' =
  let n = Array.length v in
  let rec loop i =
    i = n
    ||
    (match (v.(i), v'.(i)) with
    | None, _ -> loop (i + 1)
    | Some x, Some y -> equal x y && loop (i + 1)
    | Some _, None -> false)
  in
  Array.length v' = n && loop 0

let validity ~equal ~written views =
  Array.for_all
    (fun view ->
      Array.length view = Array.length written
      && Array.for_all (fun ok -> ok)
           (Array.mapi
              (fun j entry ->
                match entry with
                | None -> true
                | Some x -> equal x written.(j))
              view))
    views

let self_containment views =
  Array.for_all (fun ok -> ok)
    (Array.mapi (fun i view -> view.(i) <> None) views)

let inclusion ~equal views =
  Array.for_all
    (fun v ->
      Array.for_all (fun v' -> subseteq ~equal v v' || subseteq ~equal v' v)
        views)
    views

let immediacy ~equal views =
  Array.for_all (fun ok -> ok)
    (Array.mapi
       (fun _ v ->
         Array.for_all (fun ok -> ok)
           (Array.mapi
              (fun j entry ->
                match entry with
                | None -> true
                | Some _ -> subseteq ~equal views.(j) v)
              v))
       views)

let pp pp_v ppf v =
  let pp_entry ppf = function
    | None -> Format.pp_print_string ppf "_"
    | Some x -> pp_v ppf x
  in
  Format.fprintf ppf "[%a]"
    (Format.pp_print_seq
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       pp_entry)
    (Array.to_seq v)
