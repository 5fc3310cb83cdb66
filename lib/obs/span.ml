(* The logical clock and the span/instant emission helpers. Timestamps are
   sequence numbers ticked per constructed event, not wall time: a replayed
   schedule (same init, same choices, same seed) constructs the same events
   in the same order and therefore the same stamps — traces are
   deterministic and diffable. Wall time, when a caller wants it, rides
   along as an event argument instead of replacing the clock.

   The clock is per-domain: parallel workers stamp their captured events
   on private clocks (scratch stamps — {!replay} re-stamps on the main
   clock when draining), so no cross-domain ordering ever leaks into a
   trace. Every constructed event also feeds the flight {!Recorder}
   unless it is disarmed, which is why construction is gated on
   [traced || armed] rather than on tracing alone. *)

let clock_key = Domain.DLS.new_key (fun () -> ref 0)
let wall_clock : (unit -> float) option ref = ref None

let reset () = Domain.DLS.get clock_key := 0
let set_wall_clock c = wall_clock := c
let wall_enabled () = !wall_clock <> None

let now () =
  let clock = Domain.DLS.get clock_key in
  incr clock;
  !clock

let stamp_args args =
  match !wall_clock with
  | None -> args
  | Some c -> ("wall_s", Json.Float (c ())) :: args

let publish kind ~cat ~track ~args name =
  let traced = Sink.enabled () in
  if traced || !Recorder.armed then begin
    let e =
      { Sink.kind; name; cat; track; ts = now (); args = stamp_args args }
    in
    if traced then Sink.emit e;
    if !Recorder.armed then Recorder.record e
  end

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

(* Capture [f]'s events on a fresh clock, restoring the caller's count
   after. Worker domains have private clocks already; the fresh clock is
   for the main domain executing its own share of captured units —
   without it those scratch constructions would advance the main clock
   and shift every re-stamped tick, making the trace depend on how units
   were divided. *)
let captured f =
  let clock = Domain.DLS.get clock_key in
  let saved = !clock in
  clock := 0;
  Fun.protect ~finally:(fun () -> clock := saved) (fun () -> Sink.captured f)

(* Drain captured worker events into the live trace, re-stamped on the
   calling domain's clock so the published stream stays monotone. Sink
   only, never back into the recorder: the originating domain's ring
   already holds these events. *)
let replay events =
  if Sink.enabled () then
    List.iter (fun (e : Sink.event) -> Sink.emit { e with ts = now () }) events
