(* In-memory spans recorded around the benchmark's own calls into each
   layer. A span has a name, a start and end on the wall clock, the span
   that encloses it and the index of the batch it belongs to. Nothing is
   written while the benchmark runs; [write] dumps the spans as JSONL at
   exit. A layer's self time is its spans' duration minus the time their
   children cover. With [enabled] off, [span] is a direct call. *)

type span = {
  id : int;
  name : string;  (** "<layer>.<what>" *)
  parent : int;  (** -1 at top level *)
  run : int;  (** batch index; -1 outside the traced batches *)
  start : float;
  stop : float;
  estimated : bool;
      (** a layer's share of an opaque call, estimated by sampling
          rather than timed directly *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let run = ref (-1)
let now = Unix.gettimeofday
let parent () = match !stack with p :: _ -> p | [] -> -1

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = parent () in
    stack := id :: !stack;
    let start = now () in
    let close () =
      let stop = now () in
      stack := List.tl !stack;
      spans :=
        { id; name; parent; run = !run; start; stop; estimated = false }
        :: !spans
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* A span measured elsewhere — in a child process, or estimated — as a
   child of the open span. *)
let adopt ?(estimated = false) ~name ~start ~stop () =
  let id = !next_id in
  incr next_id;
  spans :=
    { id; name; parent = parent (); run = !run; start; stop; estimated }
    :: !spans

(* Estimated children of the open span, laid back to back so that they
   end now. *)
let estimate parts =
  if !enabled then begin
    let cursor = ref (now ()) in
    List.iter
      (fun (name, seconds) ->
        if seconds > 0. then begin
          adopt ~estimated:true ~name ~start:(!cursor -. seconds) ~stop:!cursor ();
          cursor := !cursor -. seconds
        end)
      parts
  end

let duration s = s.stop -. s.start

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self seconds per layer, over the spans of the traced batches. *)
let self_by_layer () =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt covered s.parent) ~default:0.))
    !spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.run >= 0 then begin
        let own =
          duration s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.
        in
        let layer = layer_of s.name in
        Hashtbl.replace self layer
          (own +. Option.value (Hashtbl.find_opt self layer) ~default:0.)
      end)
    !spans;
  self

let sum p = List.fold_left (fun acc s -> if p s then acc +. duration s else acc) 0. !spans

let write file =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"run\":%d,\"start_s\":%.6f,\"end_s\":%.6f,\"estimated\":%b}\n"
            s.id s.name s.parent s.run s.start s.stop s.estimated)
        (List.rev !spans))
