(* The logical clock and the span/instant emission helpers. Timestamps are
   sequence numbers ticked per constructed event, not wall time: a replayed
   schedule (same init, same choices, same seed) constructs the same events
   in the same order and therefore the same stamps — traces are
   deterministic and diffable. Wall time, when a caller wants it, rides
   along as an event argument instead of replacing the clock.

   One rule routes every event. Inside a {!Sink.captured} block, on any
   domain, it goes to the capture buffer only, unstamped. On the main
   domain outside a capture it is stamped on the one clock, emitted if
   traced and recorded by the flight {!Recorder} if armed — which is why
   construction is gated on [traced || armed] rather than on tracing
   alone. A bare worker domain constructs nothing. {!replay} applies the
   main-domain rule to captured events, so a pool unit's events reach
   the trace and the ring by the same route as the main domain's own. *)

let clock = ref 0
let wall_clock : (unit -> float) option ref = ref None

let reset () = clock := 0
let set_wall_clock c = wall_clock := c
let wall_enabled () = !wall_clock <> None

let now () =
  incr clock;
  !clock

let stamp_args args =
  match !wall_clock with
  | None -> args
  | Some c -> ("wall_s", Json.Float (c ())) :: args

(* The main domain's rule for an event stamped on its clock. *)
let deliver ~traced e =
  if traced then Sink.emit e;
  if !Recorder.armed then Recorder.record e

let publish kind ~cat ~track ~args name =
  let traced = Sink.enabled () in
  if traced || !Recorder.armed then
    if Sink.capturing () then
      Sink.emit { Sink.kind; name; cat; track; ts = 0; args = stamp_args args }
    else if Domain.is_main_domain () then
      deliver ~traced
        { Sink.kind; name; cat; track; ts = now (); args = stamp_args args }

let instant ?(cat = "app") ?(track = 0) ?(args = []) name =
  publish Sink.Instant ~cat ~track ~args name

(* Spans live on track 0; only per-process instants name a track. *)
let begin_ ?(cat = "app") ?(args = []) name =
  publish Sink.Begin ~cat ~track:0 ~args name

let end_ ?(cat = "app") ?(args = []) name =
  publish Sink.End ~cat ~track:0 ~args name

let span ?cat ?args name f =
  begin_ ?cat ?args name;
  match f () with
  | v ->
      end_ ?cat name;
      v
  | exception exn ->
      end_ ?cat ~args:[ ("exn", Json.Str (Printexc.to_string exn)) ] name;
      raise exn

(* Inside an enclosing capture the events pass on unstamped, as if
   constructed there. *)
let replay events =
  let traced = Sink.enabled () in
  if Sink.capturing () then List.iter Sink.emit events
  else if (traced || !Recorder.armed) && Domain.is_main_domain () then
    List.iter
      (fun (e : Sink.event) -> deliver ~traced { e with ts = now () })
      events
