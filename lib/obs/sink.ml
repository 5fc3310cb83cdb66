(* Pluggable trace consumers. Instrumentation sites produce neutral
   {!event}s; a sink decides what to do with them (JSONL lines, a Chrome
   trace_event array, an in-memory list). One global sink is consulted by
   every site: the default [nil] sink makes disabled tracing cost a single
   load-and-compare branch, because sites guard event construction with
   {!enabled}.

   Routing is per-domain. By default events go to the global sink, and
   only from the main domain — sinks are single-consumer (a Buffer, an
   out_channel), so worker domains must not write into them. Inside
   {!captured} they go to a domain-private buffer instead: this is how
   {!Sched.Par} workers trace. Each unit's events are captured where
   they happen and drained on the main domain, in unit-index order,
   after the pool joins. *)

type kind = Begin | End | Instant

type event = {
  kind : kind;
  name : string;
  cat : string;
  track : int;
  ts : int;
  args : (string * Json.t) list;
}

type t = { emit : event -> unit; flush : unit -> unit }

let nil = { emit = ignore; flush = ignore }

(* {2 The global sink and the per-domain mode} *)

(* [active] mirrors [!current != nil] as a bare bool ref: hot
   instrumentation sites read [!active] directly — a load and a branch,
   no call — where a function-call guard would be measurable. *)
let current = ref nil
let active = ref false

(* The calling domain's capture buffer, [Some] only inside {!captured}. *)
let capture_key : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* [enabled] short-circuits on [!active], so the disabled cost stays one
   load-and-branch; the capture slot is only consulted while a sink is
   installed. A capturing domain may construct and emit (into its private
   buffer); otherwise only the main domain may. *)
let enabled () =
  !active
  &&
  match !(Domain.DLS.get capture_key) with
  | None -> Domain.is_main_domain ()
  | Some _ -> true

let emit e =
  match !(Domain.DLS.get capture_key) with
  | None -> !current.emit e
  | Some buffer -> buffer.emit e

let memory () =
  let acc = ref [] in
  ( { emit = (fun e -> acc := e :: !acc); flush = ignore },
    fun () -> List.rev !acc )

(* Capture the calling domain's emissions into a private buffer. Events
   keep the stamps of the capturing domain's logical clock — a consumer
   re-emitting them on the main domain re-stamps via {!Span.replay}, so
   the published trace stays a single monotone main-domain stream. *)
let captured f =
  let buffer, events = memory () in
  let slot = Domain.DLS.get capture_key in
  let saved = !slot in
  slot := Some buffer;
  let r = Fun.protect ~finally:(fun () -> slot := saved) f in
  (r, events ())

let set s =
  current := s;
  active := s != nil

let clear () =
  !current.flush ();
  current := nil;
  active := false

let flush () = !current.flush ()

let with_sink s f =
  let previous = !current in
  set s;
  Fun.protect
    ~finally:(fun () ->
      s.flush ();
      set previous)
    f

(* {2 Serialization} *)

let kind_to_string = function Begin -> "B" | End -> "E" | Instant -> "i"

let kind_of_string = function
  | "B" -> Some Begin
  | "E" -> Some End
  | "i" -> Some Instant
  | _ -> None

let event_fields e =
  let base =
    [
      ("name", Json.Str e.name);
      ("cat", Json.Str e.cat);
      ("ph", Json.Str (kind_to_string e.kind));
      ("ts", Json.Int e.ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int e.track);
    ]
  in
  let scope = match e.kind with Instant -> [ ("s", Json.Str "t") ] | _ -> [] in
  let args =
    match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ]
  in
  base @ scope @ args

let event_json e = Json.Obj (event_fields e)

let event_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (str "name", str "ph") with
  | Some name, Some ph -> (
      match kind_of_string ph with
      | None -> None
      | Some kind ->
          Some
            {
              kind;
              name;
              cat = Option.value (str "cat") ~default:"";
              track = Option.value (int "tid") ~default:0;
              ts = Option.value (int "ts") ~default:0;
              args =
                (match Json.member "args" j with
                | Some (Json.Obj fields) -> fields
                | _ -> []);
            })
  | _ -> None

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

(* {2 Writers}

   Writers take a [string -> unit] so the same code serves out_channels
   ([output_string oc]) and Buffers ([Buffer.add_string b]). *)

let jsonl write =
  {
    emit =
      (fun e ->
        write (Json.to_string (event_json e));
        write "\n");
    flush = ignore;
  }

let catapult write =
  let first = ref true in
  let opened = ref false in
  let closed = ref false in
  {
    emit =
      (fun e ->
        if not !opened then begin
          opened := true;
          write "[\n"
        end;
        if !first then first := false else write ",\n";
        write (Json.to_string (event_json e)));
    flush =
      (fun () ->
        if not !closed then begin
          closed := true;
          if not !opened then write "[";
          write "\n]\n"
        end);
  }
