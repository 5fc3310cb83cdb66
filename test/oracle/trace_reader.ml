(* The whole-file trace reader [Obs.Sink] had before it read traces one
   event at a time, kept as the reference for the differential property
   in test_obs: on any input, [Sink.iter_trace] must accept exactly what
   this accepts, with the same events. It reads the whole text, parses a
   catapult array as one JSON value, and reports a parse error anywhere
   in the array before any non-event element. *)

open Obs
open Sink

(* A trace file is either JSONL (one event object per non-blank line) or
   a catapult array. Errors keep the wording [trace summary] and [report]
   print after "invalid trace FILE: "; jsonl line numbers count non-blank
   lines. *)
let events_of_string text =
  let event where i j =
    match event_of_json j with
    | Some e -> Ok e
    | None ->
        Error
          (Printf.sprintf "%s %d: object is not a trace event: %s" where
             (i + 1) (Json.to_string j))
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | Ok e :: rest -> all (e :: acc) rest
    | Error m :: _ -> Error m
  in
  let trimmed = String.trim text in
  if trimmed = "" then Ok []
  else if trimmed.[0] = '[' then
    match Json.of_string trimmed with
    | Error e -> Error (Printf.sprintf "unparseable catapult array (%s)" e)
    | Ok (Json.List items) -> all [] (List.mapi (event "element") items)
    | Ok _ -> Error "expected a top-level array"
  else
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i line ->
           match Json.of_string line with
           | Error e ->
               Error (Printf.sprintf "line %d unparseable (%s)" (i + 1) e)
           | Ok j -> event "line" i j)
    |> all []

