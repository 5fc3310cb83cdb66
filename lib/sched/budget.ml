type t = { deadline : float option; max_nodes : int option }

let unlimited = { deadline = None; max_nodes = None }
let make ?deadline ?max_nodes () = { deadline; max_nodes }

let is_unlimited b = b = unlimited

let opt_min a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let min_caps a b =
  {
    deadline = opt_min a.deadline b.deadline;
    max_nodes = opt_min a.max_nodes b.max_nodes;
  }

let pp ppf b =
  if is_unlimited b then Format.pp_print_string ppf "unlimited"
  else begin
    let cap pp_v ppf = function
      | None -> Format.pp_print_string ppf "-"
      | Some v -> pp_v ppf v
    in
    Format.fprintf ppf "deadline=%a nodes=%a"
      (cap (fun ppf s -> Format.fprintf ppf "%.3gs" s))
      b.deadline (cap Format.pp_print_int) b.max_nodes
  end

type stop_reason =
  | Deadline
  | Node_cap

let stop_reason_to_string = function
  | Deadline -> "deadline"
  | Node_cap -> "node-cap"

let pp_stop_reason ppf r =
  Format.pp_print_string ppf (stop_reason_to_string r)

(* How many [stopped] polls to skip between clock reads. *)
let clock_stride = 64

(* One process-wide clock: every monitor armed without an explicit
   override reads the same time source, so concurrent explorations (the
   parallel driver's workers) judge the same deadline instead of each
   call site defaulting to its own [Unix.gettimeofday] closure. Tests
   drive time deterministically with [arm ~clock]. *)
let now () = Unix.gettimeofday ()

type monitor = {
  b : t;
  clock : unit -> float;
  started : float;
  mutable polls : int;
  mutable tripped : stop_reason option;
}

let arm ?(clock = now) b =
  { b; clock; started = clock (); polls = 0; tripped = None }

let budget m = m.b
let elapsed m = max 0. (m.clock () -. m.started)

let exceeds cap used =
  match cap with None -> false | Some cap -> used >= cap

let stopped m ~nodes =
  match m.tripped with
  | Some _ as r -> r
  | None ->
      let r =
        if exceeds m.b.max_nodes nodes then Some Node_cap
        else begin
          m.polls <- m.polls + 1;
          match m.b.deadline with
          | Some d when m.polls mod clock_stride = 1 && elapsed m >= d ->
              Some Deadline
          | _ -> None
        end
      in
      m.tripped <- r;
      r

let remaining m ~nodes =
  {
    deadline = Option.map (fun d -> max 0. (d -. elapsed m)) m.b.deadline;
    max_nodes = Option.map (fun c -> max 0 (c - nodes)) m.b.max_nodes;
  }

(* {1 Frontiers} *)

type choice =
  | Step of int
  | Crash of int

type frontier = choice list list

let frontier_size = List.length

(* The empty path (a budget that tripped at the root: the whole tree is
   the frontier) gets an explicit token, so it survives the round trip
   instead of reading back as a blank line. *)
let frontier_to_string f =
  let b = Buffer.create 256 in
  List.iter
    (fun path ->
      if path = [] then Buffer.add_char b '.'
      else
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char b ' ';
            match c with
            | Step p -> Buffer.add_string b (Printf.sprintf "s%d" p)
            | Crash p -> Buffer.add_string b (Printf.sprintf "c%d" p))
          path;
      Buffer.add_char b '\n')
    f;
  Buffer.contents b

let frontier_of_string s =
  let parse_token tok =
    let pid tail =
      match int_of_string_opt tail with
      | Some p when p >= 0 -> Ok p
      | _ -> Error (Printf.sprintf "bad pid in frontier token %S" tok)
    in
    if String.length tok < 2 then
      Error (Printf.sprintf "bad frontier token %S" tok)
    else
      let tail = String.sub tok 1 (String.length tok - 1) in
      match tok.[0] with
      | 's' -> Result.map (fun p -> Step p) (pid tail)
      | 'c' -> Result.map (fun p -> Crash p) (pid tail)
      | _ -> Error (Printf.sprintf "bad frontier token %S" tok)
  in
  let parse_line line =
    if String.trim line = "." then Ok []
    else
      String.split_on_char ' ' line
      |> List.filter (fun t -> t <> "")
      |> List.fold_left
           (fun acc tok ->
             Result.bind acc (fun path ->
                 Result.map (fun c -> c :: path) (parse_token tok)))
           (Ok [])
      |> Result.map List.rev
  in
  String.split_on_char '\n' s
  |> List.filter (fun l -> String.trim l <> "")
  |> List.fold_left
       (fun acc line ->
         Result.bind acc (fun paths ->
             Result.map (fun p -> p :: paths) (parse_line line)))
       (Ok [])
  |> Result.map List.rev
