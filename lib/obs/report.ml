(* The health-report renderer: fold telemetry artifacts (a trace's
   events and a metrics snapshot) into a small block document, then
   print that document as Markdown or self-contained HTML. No clocks and
   no I/O beyond reading the trace, so a report over fixed inputs is
   byte-identical, like every other artifact in this repo. *)

type table = { headers : string list; rows : string list list }
type curve = { title : string; points : (int * float) list }

type block =
  | Heading of int * string
  | Para of string
  | Table of table
  | Curve of curve

(* {2 Folding a trace}

   The report keeps only what it prints, so a trace of any length is
   folded in one pass as it is read. *)

type t = {
  mutable events : int;
  mutable last_ts : int;
  mutable meta : (string * Json.t) list option;  (** the first meta's args *)
  cats : (string, int) Hashtbl.t;
  names : (string * Sink.kind, int) Hashtbl.t;
  open_spans : (int, (string * string * int) list) Hashtbl.t;
  spans : (string * string, int * int) Hashtbl.t;  (** count, ticks inside *)
  verdicts : (string, int) Hashtbl.t;
  mutable witnesses : string list list;  (** newest first *)
  points : (int * float) list array;  (** per curve, newest first *)
}

let arg_int e k = Option.bind (List.assoc_opt k e.Sink.args) Json.to_int
let arg_str e k = Option.bind (List.assoc_opt k e.Sink.args) Json.to_str

(* Coverage curves: title, source instant, x, y argument. *)
let curves =
  let gen e = arg_int e "generation" and ts e = Some e.Sink.ts in
  [|
    ("corpus size by generation", "fleet.health", gen, "corpus");
    ("coverage signals by generation", "fleet.health", gen, "signals");
    ("cumulative violations by generation", "fleet.health", gen, "violations");
    ("nodes explored over logical time", "explore.progress", ts, "nodes");
  |]

(* [validate] names the first unclosed track in [open_spans]'s iteration
   order, which its initial 8 buckets decide; test_obs pins that track. *)
let create () =
  let tbl () = Hashtbl.create 16 in
  { events = 0; last_ts = 0; meta = None; cats = tbl (); names = tbl ();
    open_spans = Hashtbl.create 8; spans = tbl (); verdicts = tbl ();
    witnesses = []; points = Array.make (Array.length curves) [] }

let count tbl k =
  Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

(* Fold one event in; [false] for an End with no open Begin on its track,
   which the rollups skip. Spans pair each End with the innermost open
   Begin on the same track. *)
let add r (e : Sink.event) =
  r.events <- r.events + 1;
  r.last_ts <- max r.last_ts e.ts;
  count r.cats e.cat;
  count r.names (e.name, e.kind);
  (match e.name with
  | "meta" when Option.is_none r.meta -> r.meta <- Some e.args
  | "chaos.run" ->
      count r.verdicts (Option.value (arg_str e "verdict") ~default:"?")
  | "fleet.witness" ->
      let cell = function Some i -> string_of_int i | None -> "?" in
      r.witnesses <-
        [
          Option.value (arg_str e "class") ~default:"?";
          cell (arg_int e "generation");
          cell (arg_int e "deliveries");
        ]
        :: r.witnesses
  | _ -> ());
  Array.iteri
    (fun i (_, name, x, y) ->
      if e.name = name then
        match (x e, arg_int e y) with
        | Some xv, Some yv ->
            r.points.(i) <- (xv, float_of_int yv) :: r.points.(i)
        | _ -> ())
    curves;
  let stack = Hashtbl.find_opt r.open_spans e.track in
  match (e.kind, stack) with
  | Sink.Instant, _ -> true
  | Sink.Begin, _ ->
      Hashtbl.replace r.open_spans e.track
        ((e.cat, e.name, e.ts) :: Option.value stack ~default:[]);
      true
  | Sink.End, Some ((cat, name, t0) :: rest) ->
      Hashtbl.replace r.open_spans e.track rest;
      let n, ticks =
        Option.value (Hashtbl.find_opt r.spans (cat, name)) ~default:(0, 0)
      in
      Hashtbl.replace r.spans (cat, name) (n + 1, ticks + e.ts - t0);
      true
  | Sink.End, _ -> false

let fold check ic =
  let r = create () in
  Result.map (fun () -> r) (Sink.iter_trace ic (check r))

let of_trace = fold (fun r e -> Ok (ignore (add r e)))

(* Every event must belong to a known subsystem category — a typo'd cat
   would otherwise slip through every downstream consumer silently. This
   list is the single registry; extend it when a subsystem starts
   emitting a new category. *)
let known_categories =
  [
    "app"; "chaos"; "dynreg"; "experiment"; "explore"; "fleet"; "harness";
    "membership"; "meta"; "net"; "sched";
  ]

let validate ic =
  let check r (e : Sink.event) =
    if not (List.mem e.cat known_categories) then
      Error (Printf.sprintf "unknown event category %S (event %S)" e.cat e.name)
    else if add r e then Ok ()
    else Error (Printf.sprintf "span end without begin on track %d" e.track)
  in
  Result.bind (fold check ic) (fun r ->
      match Seq.find (fun (_, s) -> s <> []) (Hashtbl.to_seq r.open_spans) with
      | None -> Ok r
      | Some (track, s) ->
          Error
            (Printf.sprintf "%d unclosed span(s) on track %d" (List.length s)
               track))

(* {2 Sections} *)

let sorted tbl =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [] |> List.sort compare

let tally_rows tbl =
  List.map (fun (k, n) -> [ k; string_of_int n ]) (sorted tbl)

let meta_section r =
  let args = Option.value r.meta ~default:[] in
  let str = function Json.Str s -> s | v -> Json.to_string v in
  let field k =
    Option.map (fun v -> k ^ ": " ^ str v) (List.assoc_opt k args)
  in
  match List.filter_map field [ "seed"; "jobs"; "ocaml_version" ] with
  | [] -> []
  | fields -> [ Para (String.concat "  ·  " fields) ]

let overview_section r =
  let by_name =
    List.map
      (fun ((name, kind), n) ->
        [ name; Sink.kind_to_string kind; string_of_int n ])
      (sorted r.names)
  in
  [
    Heading (2, "Events");
    Para
      (Printf.sprintf "%d event(s), logical clock 1..%d." r.events r.last_ts);
    Table { headers = [ "category"; "events" ]; rows = tally_rows r.cats };
    Table { headers = [ "event"; "kind"; "events" ]; rows = by_name };
  ]

(* A level-2 section: a heading, [intro] paragraphs and one table, or
   nothing when the table has no rows. *)
let section ?(intro = []) title headers rows =
  if rows = [] then []
  else
    (Heading (2, title) :: List.map (fun p -> Para p) intro)
    @ [ Table { headers; rows } ]

(* Per-(cat, name) span rollups: count and total ticks inside. *)
let rollup_section r =
  Hashtbl.fold
    (fun (cat, name) (n, total) acc -> (total, cat, name, n) :: acc)
    r.spans []
  |> List.sort (fun a b -> compare b a)
  |> List.map (fun (total, cat, name, n) ->
         [
           Printf.sprintf "%s/%s" cat name;
           string_of_int n;
           string_of_int total;
           Printf.sprintf "%.1f" (float_of_int total /. float_of_int n);
         ])
  |> section "Span rollups"
       ~intro:[ "Logical ticks spent inside each span kind, largest first." ]
       [ "span"; "count"; "ticks"; "mean" ]

let verdict_section r =
  section "Verdicts" [ "verdict"; "runs" ] (tally_rows r.verdicts)

let witness_section r =
  let rows = List.rev r.witnesses in
  section "Witness inventory"
    ~intro:
      [
        Printf.sprintf "%d distinct violation class(es) witnessed."
          (List.length rows);
      ]
    [ "class"; "generation"; "deliveries" ]
    rows

let coverage_section r =
  let curves =
    List.concat
      (List.mapi
         (fun i (title, _, _, _) ->
           match List.rev r.points.(i) with
           | _ :: _ :: _ as points -> [ Curve { title; points } ]
           | _ -> [])
         (Array.to_list curves))
  in
  if curves = [] then [] else Heading (2, "Coverage over time") :: curves

(* {2 Metrics section} *)

let metrics_section = function
  | None -> []
  | Some snap ->
      let fields k =
        match Json.member k snap with Some (Json.Obj fs) -> fs | _ -> []
      in
      let counter (k, v) =
        Option.map (fun i -> [ k; string_of_int i ]) (Json.to_int v)
      in
      let cell = function Some i -> string_of_int i | None -> "-" in
      let stats = [ "count"; "p50"; "p90"; "p99"; "max" ] in
      let histogram (k, h) =
        k :: List.map (fun f -> cell (Json.member_int f h)) stats
      in
      section "Counters" [ "counter"; "count" ]
        (List.filter_map counter (fields "counters"))
      @ section "Histogram percentiles"
          ~intro:[ "p50/p90/p99 are bucket upper bounds; max is exact." ]
          ("histogram" :: stats)
          (List.map histogram (fields "histograms"))

let summary r =
  if r.events = 0 then [ Para "No trace events." ]
  else overview_section r @ rollup_section r

let of_sources ?metrics r =
  (Heading (1, "boundedreg health report") :: meta_section r)
  @ summary r @ verdict_section r @ witness_section r @ coverage_section r
  @ metrics_section metrics

(* {2 Markdown} *)

(* Least and greatest of [vs], from the bounds [lo] and [hi] up. *)
let range lo hi vs = (List.fold_left min lo vs, List.fold_left max hi vs)

let spark vs =
  let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
  let lo, hi = range infinity neg_infinity vs in
  String.concat ""
    (List.map
       (fun v ->
         let t = if hi -. lo <= 0. then 0. else (v -. lo) /. (hi -. lo) in
         glyphs.(min 7 (int_of_float (t *. 7.99))))
       vs)

let md_table b { headers; rows } =
  let row cells = Buffer.add_string b ("| " ^ String.concat " | " cells ^ " |\n") in
  row headers;
  row (List.map (fun _ -> "---") headers);
  List.iter row rows;
  Buffer.add_char b '\n'

let to_markdown blocks =
  let b = Buffer.create 1024 in
  List.iter
    (fun block ->
      match block with
      | Heading (level, text) ->
          Buffer.add_string b (String.make level '#' ^ " " ^ text ^ "\n\n")
      | Para text -> Buffer.add_string b (text ^ "\n\n")
      | Table t -> md_table b t
      | Curve { title; points } ->
          let ys = List.map snd points in
          let xlo, xhi = range max_int min_int (List.map fst points) in
          let ylo, yhi = range infinity neg_infinity ys in
          Buffer.add_string b
            (Printf.sprintf "**%s** (%d samples, x %d..%d, y %g..%g)\n\n" title
               (List.length points) xlo xhi ylo yhi);
          Buffer.add_string b ("`" ^ spark ys ^ "`\n\n"))
    blocks;
  Buffer.contents b

(* {2 HTML} *)

let html_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let svg_curve b { title = _; points } =
  let w = 480. and h = 80. and pad = 4. in
  let xs = List.map (fun (x, _) -> float_of_int x) points in
  let ys = List.map snd points in
  let xlo, xhi = range infinity neg_infinity xs in
  let ylo, yhi = range infinity neg_infinity ys in
  let sx x = if xhi = xlo then pad else pad +. ((x -. xlo) /. (xhi -. xlo) *. (w -. (2. *. pad))) in
  let sy y = if yhi = ylo then h /. 2. else h -. pad -. ((y -. ylo) /. (yhi -. ylo) *. (h -. (2. *. pad))) in
  Buffer.add_string b
    (Printf.sprintf
       "<svg width=\"%.0f\" height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\
        <polyline fill=\"none\" stroke=\"#0b6\" stroke-width=\"1.5\" points=\""
       w h w h);
  List.iter2
    (fun x y -> Buffer.add_string b (Printf.sprintf "%.1f,%.1f " (sx x) (sy y)))
    xs ys;
  Buffer.add_string b "\"/></svg>\n"

let to_html blocks =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
     <title>boundedreg health report</title>\n<style>\
     body{font-family:sans-serif;max-width:64em;margin:2em auto;color:#222}\
     table{border-collapse:collapse;margin:1em 0}\
     td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:left}\
     th{background:#f4f4f4}\
     </style></head><body>\n";
  List.iter
    (fun block ->
      match block with
      | Heading (level, text) ->
          Buffer.add_string b
            (Printf.sprintf "<h%d>%s</h%d>\n" level (html_escape text) level)
      | Para text ->
          Buffer.add_string b (Printf.sprintf "<p>%s</p>\n" (html_escape text))
      | Table { headers; rows } ->
          let row tag cells =
            Buffer.add_string b "<tr>";
            List.iter
              (fun c ->
                Buffer.add_string b
                  (Printf.sprintf "<%s>%s</%s>" tag (html_escape c) tag))
              cells;
            Buffer.add_string b "</tr>\n"
          in
          Buffer.add_string b "<table>";
          row "th" headers;
          List.iter (row "td") rows;
          Buffer.add_string b "</table>\n"
      | Curve c ->
          Buffer.add_string b
            (Printf.sprintf "<p><strong>%s</strong> (%d samples)</p>\n"
               (html_escape c.title) (List.length c.points));
          svg_curve b c)
    blocks;
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b
