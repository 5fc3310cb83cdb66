(* The flight recorder: an always-on, fixed-capacity ring of the most
   recent events per domain, dumped post mortem when a run dies or
   misbehaves (watchdog trip, escaping exception, first NONLINEARIZABLE
   verdict, SIGINT/SIGTERM). Tracing answers "what happened?" when you
   asked in advance; the recorder answers it when you didn't.

   Recording is deliberately dumb and cheap: every constructed event
   (see {!Span}) lands in the calling domain's preallocated ring — an
   array store and a counter bump, no allocation, no locking. Per-message
   sites guard event {e construction} on [Sink.enabled ()], and scheduler
   steps construct no event at all, so only the coarse always-constructed
   events (run and campaign boundaries, verdict instants) feed the ring
   of an untraced run. *)

let capacity = 4096 (* slots per ring; power of two, index by [land] *)
let mask = capacity - 1
let armed = ref true

let dummy =
  { Sink.kind = Sink.Instant; name = ""; cat = ""; track = 0; ts = 0; args = [] }

type ring = {
  domain : int;
  main : bool;
  slots : Sink.event array;
  mutable count : int;  (** total recorded; the ring holds the last [capacity] *)
}

let fresh_ring domain main =
  { domain; main; slots = Array.make capacity dummy; count = 0 }

(* Registry of live rings, for [dump]. Guarded by [lock]; the recording
   fast path never takes it (a domain reaches its own ring through DLS).
   [graveyard] keeps the tail of rings whose domains have exited —
   {!Sched.Par} spawns fresh domains per pool, so without [retire] the
   registry would grow without bound over a long fleet run. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let rings : ring list ref = ref []
let graveyard = fresh_ring (-1) false

let key =
  Domain.DLS.new_key (fun () ->
      let r =
        fresh_ring (Domain.self () :> int) (Domain.is_main_domain ())
      in
      locked (fun () -> rings := r :: !rings);
      r)

let record e =
  let r = Domain.DLS.get key in
  Array.unsafe_set r.slots (r.count land mask) e;
  r.count <- r.count + 1

type mark = (ring * int) list

(* Oldest-to-newest contents of a ring after its count in [since]. *)
let ring_events ?(since = []) r =
  let from = Option.value (List.assq_opt r since) ~default:0 in
  let start = max (if from > r.count then 0 else from) (r.count - capacity) in
  List.init (r.count - start) (fun i -> r.slots.((start + i) land mask))

let retire () =
  let r = Domain.DLS.get key in
  if not r.main then begin
    locked (fun () ->
        rings := List.filter (fun x -> x != r) !rings;
        List.iter
          (fun e ->
            graveyard.slots.(graveyard.count land mask) <- e;
            graveyard.count <- graveyard.count + 1)
          (ring_events r));
    r.count <- 0
  end

(* Main-domain ring first (it holds the narrative), then the graveyard
   of finished workers, then live worker rings. Reading another domain's
   ring is unsynchronized by design — a dump is a post-mortem best
   effort, and a racy slot read yields some valid event, just possibly a
   stale one. *)
let all_rings () =
  locked (fun () ->
      let live = List.rev !rings in
      let mains, workers = List.partition (fun r -> r.main) live in
      mains @ (graveyard :: workers))

let mark () = List.map (fun r -> (r, r.count)) (all_rings ())

let events ?since () =
  List.concat_map
    (fun r -> List.map (fun e -> (r.domain, e)) (ring_events ?since r))
    (all_rings ())

let dump ?(dir = Filename.current_dir_name) ?since ~reason () =
  let recorded = events ?since () in
  if recorded = [] then None
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
            List.iter
              (fun (dom, e) ->
                output_string oc
                  (Json.to_string
                     (Json.Obj (("dom", Json.Int dom) :: Sink.event_fields e)));
                output_char oc '\n')
              recorded);
        Some file
