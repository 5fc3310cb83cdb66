(* The health-report renderer: fold telemetry artifacts (a trace's
   events and a metrics snapshot) into a small block document, then
   print that document as Markdown or self-contained HTML. Pure — no
   I/O, no clocks — so a report over fixed inputs is byte-identical,
   like every other artifact in this repo. *)

type table = { headers : string list; rows : string list list }
type curve = { title : string; points : (int * float) list }

type block =
  | Heading of int * string
  | Para of string
  | Table of table
  | Curve of curve

(* {2 Event access helpers} *)

let arg e k = List.assoc_opt k e.Sink.args

let arg_int e k =
  match arg e k with Some (Json.Int i) -> Some i | _ -> None

let arg_str e k =
  match arg e k with Some (Json.Str s) -> Some s | _ -> None

let named name e = e.Sink.name = name

(* {2 Sections} *)

let meta_section events =
  match List.find_opt (named "meta") events with
  | None -> []
  | Some m ->
      let field k render =
        match arg m k with None -> [] | Some v -> [ (k, render v) ]
      in
      let str = function Json.Str s -> s | v -> Json.to_string v in
      let fields =
        field "seed" str @ field "jobs" str @ field "ocaml_version" str
      in
      if fields = [] then []
      else
        [
          Para
            (String.concat "  ·  "
               (List.map (fun (k, v) -> Printf.sprintf "%s: %s" k v) fields));
        ]

(* Counts of [key e] over the events, sorted by key. *)
let tally key events =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = key e in
      Hashtbl.replace counts k
        (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
    events;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [] |> List.sort compare

let overview_section events =
  let last_ts = List.fold_left (fun acc e -> max acc e.Sink.ts) 0 events in
  let by_cat =
    List.map
      (fun (cat, n) -> [ cat; string_of_int n ])
      (tally (fun e -> e.Sink.cat) events)
  in
  let by_name =
    List.map
      (fun ((name, kind), n) ->
        [ name; Sink.kind_to_string kind; string_of_int n ])
      (tally (fun e -> (e.Sink.name, e.Sink.kind)) events)
  in
  [
    Heading (2, "Events");
    Para
      (Printf.sprintf "%d event(s), logical clock 1..%d." (List.length events)
         last_ts);
    Table { headers = [ "category"; "events" ]; rows = by_cat };
    Table { headers = [ "event"; "kind"; "events" ]; rows = by_name };
  ]

(* Per-(cat, name) span rollups: pair each End with the innermost open
   Begin on the same track, accumulate count and total ticks inside. *)
let rollup_section events =
  let open_spans : (int, (string * string * int) list) Hashtbl.t =
    Hashtbl.create 8
  in
  let acc : (string * string, int * int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e.Sink.kind with
      | Sink.Instant -> ()
      | Sink.Begin ->
          let stack =
            Option.value (Hashtbl.find_opt open_spans e.track) ~default:[]
          in
          Hashtbl.replace open_spans e.track
            ((e.cat, e.name, e.ts) :: stack)
      | Sink.End -> (
          match Hashtbl.find_opt open_spans e.track with
          | Some ((cat, name, t0) :: rest) ->
              Hashtbl.replace open_spans e.track rest;
              let n, total =
                Option.value (Hashtbl.find_opt acc (cat, name)) ~default:(0, 0)
              in
              Hashtbl.replace acc (cat, name) (n + 1, total + e.ts - t0)
          | _ -> ()))
    events;
  let rows =
    Hashtbl.fold
      (fun (cat, name) (n, total) acc -> (total, cat, name, n) :: acc)
      acc []
    |> List.sort (fun a b -> compare b a)
    |> List.map (fun (total, cat, name, n) ->
           [
             Printf.sprintf "%s/%s" cat name;
             string_of_int n;
             string_of_int total;
             Printf.sprintf "%.1f" (float_of_int total /. float_of_int n);
           ])
  in
  if rows = [] then []
  else
    [
      Heading (2, "Span rollups");
      Para "Logical ticks spent inside each span kind, largest first.";
      Table { headers = [ "span"; "count"; "ticks"; "mean" ]; rows };
    ]

let verdict_section events =
  let runs = List.filter (named "chaos.run") events in
  if runs = [] then []
  else
    let rows =
      List.map
        (fun (v, n) -> [ v; string_of_int n ])
        (tally (fun e -> Option.value (arg_str e "verdict") ~default:"?") runs)
    in
    [
      Heading (2, "Verdicts");
      Table { headers = [ "verdict"; "runs" ]; rows };
    ]

let witness_section events =
  let ws = List.filter (named "fleet.witness") events in
  if ws = [] then []
  else
    let rows =
      List.map
        (fun e ->
          [
            Option.value (arg_str e "class") ~default:"?";
            (match arg_int e "generation" with
            | Some g -> string_of_int g
            | None -> "?");
            (match arg_int e "deliveries" with
            | Some d -> string_of_int d
            | None -> "?");
          ])
        ws
    in
    [
      Heading (2, "Witness inventory");
      Para
        (Printf.sprintf "%d distinct violation class(es) witnessed."
           (List.length ws));
      Table { headers = [ "class"; "generation"; "deliveries" ]; rows };
    ]

let curve_of ~title ~x ~y events name =
  let points =
    List.filter_map
      (fun e ->
        if named name e then
          match (x e, arg_int e y) with
          | Some xv, Some yv -> Some (xv, float_of_int yv)
          | _ -> None
        else None)
      events
  in
  if List.length points < 2 then [] else [ Curve { title; points } ]

let coverage_section events =
  let gen e = arg_int e "generation" in
  let ts e = Some e.Sink.ts in
  let curves =
    curve_of ~title:"corpus size by generation" ~x:gen ~y:"corpus" events
      "fleet.health"
    @ curve_of ~title:"coverage signals by generation" ~x:gen ~y:"signals"
        events "fleet.health"
    @ curve_of ~title:"cumulative violations by generation" ~x:gen
        ~y:"violations" events "fleet.health"
    @ curve_of ~title:"nodes explored over logical time" ~x:ts ~y:"nodes"
        events "explore.progress"
  in
  if curves = [] then [] else Heading (2, "Coverage over time") :: curves

(* {2 Metrics section} *)

let int_member j k =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let metrics_section metrics =
  match metrics with
  | None -> []
  | Some snap ->
      let counters =
        match Json.member "counters" snap with
        | Some (Json.Obj fields) ->
            let rows =
              List.filter_map
                (fun (k, v) ->
                  match v with
                  | Json.Int i -> Some [ k; string_of_int i ]
                  | _ -> None)
                fields
            in
            if rows = [] then []
            else
              [
                Heading (2, "Counters");
                Table { headers = [ "counter"; "count" ]; rows };
              ]
        | _ -> []
      in
      let histograms =
        match Json.member "histograms" snap with
        | Some (Json.Obj fields) when fields <> [] ->
            let cell = function Some i -> string_of_int i | None -> "-" in
            let rows =
              List.map
                (fun (k, hj) ->
                  k
                  :: List.map
                       (fun f -> cell (int_member hj f))
                       [ "count"; "p50"; "p90"; "p99"; "max" ])
                fields
            in
            [
              Heading (2, "Histogram percentiles");
              Para "p50/p90/p99 are bucket upper bounds; max is exact.";
              Table
                {
                  headers = [ "histogram"; "count"; "p50"; "p90"; "p99"; "max" ];
                  rows;
                };
            ]
        | _ -> []
      in
      counters @ histograms

let summary events =
  if events = [] then [ Para "No trace events." ]
  else overview_section events @ rollup_section events

let of_sources ?metrics events =
  (Heading (1, "boundedreg health report") :: meta_section events)
  @ summary events @ verdict_section events @ witness_section events
  @ coverage_section events @ metrics_section metrics

(* {2 Markdown} *)

let spark values =
  let glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
  match values with
  | [] -> ""
  | vs ->
      let lo = List.fold_left min infinity vs in
      let hi = List.fold_left max neg_infinity vs in
      String.concat ""
        (List.map
           (fun v ->
             let t =
               if hi -. lo <= 0. then 0. else (v -. lo) /. (hi -. lo)
             in
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
          let xs = List.map fst points in
          Buffer.add_string b
            (Printf.sprintf "**%s** (%d samples, x %d..%d, y %g..%g)\n\n" title
               (List.length points)
               (List.fold_left min max_int xs)
               (List.fold_left max min_int xs)
               (List.fold_left min infinity ys)
               (List.fold_left max neg_infinity ys));
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
  let xlo = List.fold_left min infinity xs in
  let xhi = List.fold_left max neg_infinity xs in
  let ylo = List.fold_left min infinity ys in
  let yhi = List.fold_left max neg_infinity ys in
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
          Buffer.add_string b "<table><tr>";
          List.iter
            (fun h -> Buffer.add_string b ("<th>" ^ html_escape h ^ "</th>"))
            headers;
          Buffer.add_string b "</tr>\n";
          List.iter
            (fun cells ->
              Buffer.add_string b "<tr>";
              List.iter
                (fun c ->
                  Buffer.add_string b ("<td>" ^ html_escape c ^ "</td>"))
                cells;
              Buffer.add_string b "</tr>\n")
            rows;
          Buffer.add_string b "</table>\n"
      | Curve c ->
          Buffer.add_string b
            (Printf.sprintf "<p><strong>%s</strong> (%d samples)</p>\n"
               (html_escape c.title) (List.length c.points));
          svg_curve b c)
    blocks;
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b
