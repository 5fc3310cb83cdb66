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
   {!Sched.Par} units trace. Each unit's events are captured where
   they happen and drained on the main domain, in unit-index order,
   after the pool joins; the drain ({!Span.replay}) also feeds the
   flight recorder. *)

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

(* [active] mirrors [!current != nil] as a bare bool, so {!enabled}'s
   disabled case is a load and a branch. *)
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
   are captured unstamped; {!Span.replay} stamps them on the main
   domain's clock, so the published trace stays a single monotone
   main-domain stream. *)
let captured f =
  let buffer, events = memory () in
  let slot = Domain.DLS.get capture_key in
  let saved = !slot in
  slot := Some buffer;
  let r = Fun.protect ~finally:(fun () -> slot := saved) f in
  (r, events ())

let capturing () = Option.is_some !(Domain.DLS.get capture_key)

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

let event_json e =
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
  Json.Obj (base @ scope @ args)

let event_of_json j =
  let str k = Json.member_str k j and int k = Json.member_int k j in
  match (str "name", Option.bind (str "ph") kind_of_string) with
  | Some name, Some kind ->
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
        }
  | _ -> None

(* {2 Reading a trace back}

   A trace file is JSONL (one event object per non-blank line) or a
   catapult array, told apart by its first non-blank character, and is
   read one event at a time. Errors keep the wording [trace summary] and
   [report] print after "invalid trace FILE: ". *)

exception Stop of string

let fail fmt = Printf.ksprintf (fun m -> raise (Stop m)) fmt

(* [String.trim]'s blanks, and the subset the JSON parser skips. *)
let blank c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'
let json_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let event_at where i j f =
  match event_of_json j with
  | Some e -> Result.iter_error (fun m -> raise (Stop m)) (f e)
  | None ->
      fail "%s %d: object is not a trace event: %s" where i (Json.to_string j)

(* [n] non-blank lines read so far. *)
let rec read_jsonl ic f n line =
  let next = In_channel.input_line in
  match line with
  | None -> ()
  | Some l when String.trim l = "" -> read_jsonl ic f n (next ic)
  | Some l ->
      (match Json.of_string l with
      | Error e -> fail "line %d unparseable (%s)" (n + 1) e
      | Ok j -> event_at "line" (n + 1) j f);
      read_jsonl ic f (n + 1) (next ic)

(* A scanner that knows bracket depth, strings and escapes cuts the array
   (its opening bracket already read) into elements, and each is parsed
   alone. Positions count from that bracket: an element's parse error is
   re-based there, and where a parser handed the whole array would stop
   at the delimiter after an element rather than inside it (an empty
   element, a stray closer, a torn end), the scanner names that stop. *)
let read_catapult ic f =
  let bad at what = fail "unparseable catapult array (at %d: %s)" at what in
  let elem = Buffer.create 256 in
  let start = ref 1 and count = ref 0 and depth = ref 0 in
  let in_string = ref false and escaped = ref false in
  (* Past the closing bracket, [garbage] is where the first character
     that is not JSON whitespace stands; only blanks may follow it. *)
  let closed = ref false and garbage = ref (-1) in
  (* The element from [!start] to [at], where [delim] stands ([None]: the
     input's end, trailing blanks cut). *)
  let element at delim =
    let text = Buffer.contents elem and from = !start in
    Buffer.clear elem;
    start := at + 1;
    if delim <> None && String.for_all json_ws text then begin
      if !count > 0 || delim <> Some ']' then bad at {|bad number ""|}
    end
    else begin
      match Json.of_string text with
      | Error e ->
          Scanf.sscanf e "at %d: %s@\n" (fun p what ->
              bad (from + p)
                (if what = "trailing garbage" then "expected ']'" else what))
      | Ok j ->
          incr count;
          event_at "element" !count j f;
          if delim <> Some ',' && delim <> Some ']' then bad at "expected ']'"
    end;
    closed := delim = Some ']'
  in
  (* [chunk]'s bytes from [!pending] on are element text not yet in [elem]:
     text is appended a run at a time, when an element or the chunk
     ends, so a byte costs only the state update. [in_string] is tested
     first, as most bytes sit in strings; it is false once [closed]. *)
  let chunk = Bytes.create 65536 and pending = ref 0 in
  let scan_chunk at n =
    pending := 0;
    for i = 0 to n - 1 do
      let c = Bytes.unsafe_get chunk i in
      if !in_string then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else in_string := c <> '"'
      end
      else if !closed then begin
        if !garbage < 0 && not (json_ws c) then garbage := at + i;
        if not (blank c) then bad !garbage "trailing garbage"
      end
      else if !depth = 0 && (c = ',' || c = ']' || c = '}') then begin
        Buffer.add_subbytes elem chunk !pending (i - !pending);
        pending := i + 1;
        element (at + i) (Some c)
      end
      else
        match c with
        | '"' -> in_string := true
        | '[' | '{' -> incr depth
        | ']' | '}' -> decr depth
        | _ -> ()
    done;
    if not !closed then Buffer.add_subbytes elem chunk !pending (n - !pending)
  in
  let rec go at =
    match In_channel.input ic chunk 0 (Bytes.length chunk) with
    | 0 when !closed -> ()
    | 0 ->
        let len = ref (Buffer.length elem) in
        while !len > 0 && blank (Buffer.nth elem (!len - 1)) do decr len done;
        Buffer.truncate elem !len;
        element (!start + !len) None
    | n ->
        scan_chunk at n;
        go (at + n)
  in
  go 1

let iter_trace ic f =
  (* A JSONL first line keeps the blanks before it on its own line. *)
  let line = Buffer.create 16 in
  let rec lead () =
    match In_channel.input_char ic with
    | None -> ()
    | Some '\n' -> Buffer.clear line; lead ()
    | Some c when blank c -> Buffer.add_char line c; lead ()
    | Some '[' -> read_catapult ic f
    | Some c ->
        Buffer.add_char line c;
        let rest = Option.value (In_channel.input_line ic) ~default:"" in
        read_jsonl ic f 0 (Some (Buffer.contents line ^ rest))
  in
  match lead () with () -> Ok () | exception Stop m -> Error m

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
  let opened = ref false and closed = ref false in
  {
    emit =
      (fun e ->
        write (if !opened then ",\n" else "[\n");
        opened := true;
        write (Json.to_string (event_json e)));
    flush =
      (fun () ->
        if not !closed then begin
          closed := true;
          if not !opened then write "[";
          write "\n]\n"
        end);
  }
