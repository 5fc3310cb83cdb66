(* Pluggable trace consumers. Instrumentation sites produce neutral
   {!event}s; a sink decides what to do with them (JSONL lines, a Chrome
   trace_event array, an in-memory list, a console summary). One global
   sink is consulted by every site: the default [nil] sink makes disabled
   tracing cost a single load-and-compare branch, because sites guard
   event construction with {!enabled}.

   Routing is per-domain. Each domain carries a small mode word:

   - [Pass] (the default): events go to the global sink, and only from
     the main domain — sinks are single-consumer (a Buffer, an
     out_channel), so worker domains must not write into them.
   - [Capture]: events go to a domain-private buffer installed by
     {!captured}. This is how {!Sched.Par} workers stop being
     observability black holes: each unit's events are captured where
     they happen and drained on the main domain, in unit-index order,
     after the pool joins.
   - [Mute]: events are dropped ({!muted}) — internal
     segments of a larger run whose telemetry the driver reports as a
     whole. *)

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

type mode = Pass | Capture | Mute
type local = { mutable sink : t; mutable mode : mode }

let local_key = Domain.DLS.new_key (fun () -> { sink = nil; mode = Pass })

(* [enabled] short-circuits on [!active], so the disabled cost stays one
   load-and-branch; the per-domain mode is only consulted while a sink is
   installed. Under [Capture] any domain may construct and emit (into its
   private buffer); under [Pass] only the main domain may. *)
let enabled () =
  !active
  &&
  match (Domain.DLS.get local_key).mode with
  | Pass -> Domain.is_main_domain ()
  | Capture -> true
  | Mute -> false

let emit e =
  let l = Domain.DLS.get local_key in
  match l.mode with
  | Pass -> !current.emit e
  | Capture -> l.sink.emit e
  | Mute -> ()

let memory () =
  let acc = ref [] in
  ( { emit = (fun e -> acc := e :: !acc); flush = ignore },
    fun () -> List.rev !acc )

let with_mode mode sink f =
  let l = Domain.DLS.get local_key in
  let saved_mode = l.mode and saved_sink = l.sink in
  l.mode <- mode;
  l.sink <- sink;
  Fun.protect
    ~finally:(fun () ->
      l.mode <- saved_mode;
      l.sink <- saved_sink)
    f

(* Capture the calling domain's emissions into a private buffer. Events
   keep the stamps of the capturing domain's logical clock — a consumer
   re-emitting them on the main domain re-stamps via {!Span.replay}, so
   the published trace stays a single monotone main-domain stream. *)
let captured f =
  let sink, events = memory () in
  let r = with_mode Capture sink f in
  (r, events ())

let muted f = with_mode Mute nil f

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
  let event j =
    match event_of_json j with
    | Some e -> Ok e
    | None -> Error ("object is not a trace event: " ^ Json.to_string j)
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
    | Ok (Json.List items) -> all [] (List.map event items)
    | Ok _ -> Error "expected a top-level array"
  else
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.mapi (fun i line ->
           match Json.of_string line with
           | Error e ->
               Error (Printf.sprintf "line %d unparseable (%s)" (i + 1) e)
           | Ok j -> event j)
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

(* The console summarizer: per-(name, kind) event counts plus total
   logical-clock time inside spans, printed on flush. Span durations pair
   each End with the most recent unmatched Begin on the same track. *)
let console ppf =
  let counts : (string * kind, int) Hashtbl.t = Hashtbl.create 32 in
  let open_spans : (int, (string * int) list) Hashtbl.t = Hashtbl.create 8 in
  let durations : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let bump key =
    Hashtbl.replace counts key
      (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
  in
  let emit e =
    bump (e.name, e.kind);
    match e.kind with
    | Instant -> ()
    | Begin ->
        let stack =
          Option.value (Hashtbl.find_opt open_spans e.track) ~default:[]
        in
        Hashtbl.replace open_spans e.track ((e.name, e.ts) :: stack)
    | End -> (
        match Hashtbl.find_opt open_spans e.track with
        | Some ((name, t0) :: rest) ->
            Hashtbl.replace open_spans e.track rest;
            let n, total =
              Option.value (Hashtbl.find_opt durations name) ~default:(0, 0)
            in
            Hashtbl.replace durations name (n + 1, total + e.ts - t0)
        | _ -> ())
  in
  let flush () =
    let rows =
      Hashtbl.fold (fun (name, kind) n acc -> (name, kind, n) :: acc) counts []
      |> List.sort compare
    in
    Format.fprintf ppf "trace summary: %d event(s)@."
      (List.fold_left (fun acc (_, _, n) -> acc + n) 0 rows);
    List.iter
      (fun (name, kind, n) ->
        Format.fprintf ppf "  %-30s %-2s %6d" name (kind_to_string kind) n;
        (match (kind, Hashtbl.find_opt durations name) with
        | End, Some (spans, total) ->
            Format.fprintf ppf "   (%d span(s), %d ticks inside)" spans total
        | _ -> ());
        Format.fprintf ppf "@.")
      rows
  in
  { emit; flush }
