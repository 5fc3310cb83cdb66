(* The flight recorder: an always-on, fixed-capacity ring of the most
   recent events, dumped post mortem when a run dies or misbehaves
   (watchdog trip, escaping exception, first NONLINEARIZABLE verdict,
   SIGINT/SIGTERM). Tracing answers "what happened?" when you asked in
   advance; the recorder answers it when you didn't.

   Recording is deliberately dumb and cheap: every event the main domain
   constructs or replays (see {!Span}) lands in one preallocated ring —
   an array store and a counter bump, no allocation, no locking. Worker
   domains never write here: their events reach the ring, like the
   trace, through {!Span.replay} on the main domain. Per-message sites
   guard event {e construction} on [Sink.enabled ()], and scheduler
   steps construct no event at all, so only the coarse
   always-constructed events (run and campaign boundaries, verdict
   instants) feed the ring of an untraced run. *)

let capacity = 4096 (* power of two, index by [land] *)
let mask = capacity - 1
let armed = ref true

let slots =
  Array.make capacity
    { Sink.kind = Sink.Instant; name = ""; cat = ""; track = 0; ts = 0; args = [] }

(* Events recorded so far; the ring holds the last [capacity]. *)
let count = ref 0

let record e =
  Array.unsafe_set slots (!count land mask) e;
  incr count

type mark = int

let mark () = !count

let dump ?(dir = Filename.current_dir_name) ?(since = 0) ~reason () =
  let start = max since (!count - capacity) in
  if start >= !count then None
  else
    let file = Filename.concat dir (Printf.sprintf "flight-%s.jsonl" reason) in
    (* Unlink, never truncate: on some filesystems truncating an
       allocated file costs tens of milliseconds, a fresh create does
       not, and every campaign's first violation rewrites this file. *)
    (try Sys.remove file with Sys_error _ -> ());
    match open_out file with
    | exception Sys_error _ -> None
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            for i = start to !count - 1 do
              output_string oc
                (Json.to_string (Sink.event_json slots.(i land mask)));
              output_char oc '\n'
            done);
        Some file
