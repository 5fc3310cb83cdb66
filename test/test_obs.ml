(* Telemetry layer: the JSON codec, the metrics registry (bucketing in
   particular), sink plumbing, catapult well-formedness, and the headline
   guarantee — a fixed init + schedule + seed produces a byte-identical
   trace, because timestamps come from a logical clock. *)

module J = Obs.Json
module M = Obs.Metrics
module S = Obs.Sink

(* An in-memory sink and its accessor. *)
let memory () =
  let acc = ref [] in
  ( { S.emit = (fun e -> acc := e :: !acc); flush = ignore },
    fun () -> List.rev !acc )

(* The recorder's contents (from [since] on), in dump order, read back
   through a dump. *)
let recorded ?since () =
  let dir = Filename.get_temp_dir_name () in
  match Obs.Recorder.dump ~dir ?since ~reason:"read-back" () with
  | None -> []
  | Some path ->
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Sys.remove path;
      List.map
        (fun line ->
          match J.of_string line with
          | Error e -> Alcotest.failf "unparseable dump line: %s" e
          | Ok j -> (
              match S.event_of_json j with
              | Some e -> e
              | None -> Alcotest.failf "not a dump line: %s" line))
        lines

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd\te");
        ("i", J.Int (-42));
        ("f", J.Float 0.125);
        ("n", J.Null);
        ("b", J.Bool true);
        ("l", J.List [ J.Int 1; J.Obj []; J.List [] ]);
      ]
  in
  let text = J.to_string v in
  match J.of_string text with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
      Alcotest.(check string) "canonical reprint" text (J.to_string v');
      Alcotest.(check bool) "structural equality" true (v = v')

let test_json_errors () =
  let bad s =
    match J.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parser accepted %S" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1 \"b\":2}";
  bad "\"unterminated";
  bad "1 2";
  match J.of_string "  {\"a\": [1, 2.5, null]}  " with
  | Ok (J.Obj [ ("a", J.List [ J.Int 1; J.Float 2.5; J.Null ]) ]) -> ()
  | Ok v -> Alcotest.failf "misparsed: %s" (J.to_string v)
  | Error e -> Alcotest.failf "rejected valid JSON: %s" e

(* Error diagnostics are part of the CLI contract: `trace summary` and
   `report` surface them verbatim, so the position prefix and the
   message shape are pinned here. *)
let test_json_error_positions () =
  let expect input message =
    match J.of_string input with
    | Ok v ->
        Alcotest.failf "parser accepted %S as %s" input (J.to_string v)
    | Error e ->
        Alcotest.(check string) (Printf.sprintf "error for %S" input)
          message e
  in
  expect "[1,]" "at 3: bad number \"\"";
  expect "\"\\q\"" "at 2: bad escape 'q'";
  (* Truncated objects and arrays report the delimiter they ran out of
     input waiting for, at the position where it should have been. *)
  expect "{\"a\": 1" "at 7: expected '}'";
  expect "{\"a\"" "at 4: expected ':'";
  expect "[1, 2" "at 5: expected ']'";
  expect "\"unterminated" "at 13: unterminated string";
  expect "truexx" "at 4: trailing garbage";
  (* \u escapes: malformed hex, truncation, lone surrogates. *)
  expect {|"\u12g4"|} "at 3: bad \\u escape";
  expect {|"\u12"|} "at 3: truncated \\u escape";
  expect {|"\ud83d"|} "at 7: unpaired high surrogate";
  expect {|"\ud83dx"|} "at 7: unpaired high surrogate";
  expect {|"\ud83d\u0041"|} "at 13: unpaired high surrogate";
  expect {|"\ude00"|} "at 7: unpaired low surrogate"

(* \u escapes decode to UTF-8 at every width; a surrogate pair is one
   four-byte code point. *)
let test_json_unicode_escapes () =
  List.iter
    (fun (input, want) ->
      match J.of_string input with
      | Ok (J.Str got) ->
          Alcotest.(check string) (Printf.sprintf "decode %s" input) want got
      | Ok v -> Alcotest.failf "%s parsed as %s" input (J.to_string v)
      | Error e -> Alcotest.failf "rejected %s: %s" input e)
    [
      ({|"a\u0007b"|}, "a\007b");
      ({|"\u0041"|}, "A");
      ({|"\u00e9"|}, "\195\169");
      ({|"\u07FF"|}, "\223\191");
      ({|"\u0800"|}, "\224\160\128");
      ({|"\u20ac"|}, "\226\130\172");
      ({|"\u4e2d"|}, "\228\184\173");
      ({|"\uffff"|}, "\239\191\191");
      ({|"\ud83d\ude00"|}, "\240\159\152\128");
      ({|"x\u20acy\n"|}, "x\226\130\172y\n");
    ]

(* Any byte string survives print-then-parse. Half the draws are heavy
   in quotes, backslashes and control bytes (the escaping printer and
   the parser's Buffer path); the other half contain none of them (the
   whole-string copy and the slice path). *)
let prop_json_string_roundtrip =
  let open QCheck.Gen in
  let special = oneofl [ '"'; '\\'; '\n'; '\t'; '\000'; '\031' ] in
  let escaped = frequency [ (1, special); (1, char) ] in
  let plain =
    map (fun c -> if c = '"' || c = '\\' || c < ' ' then 'x' else c) char
  in
  QCheck.Test.make ~name:"json strings round-trip any bytes" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S")
       (oneof
          [
            string_size ~gen:escaped (int_bound 40);
            string_size ~gen:plain (int_bound 40);
          ]))
    (fun s -> J.of_string (J.to_string (J.Str s)) = Ok (J.Str s))

(* Hostile input never raises: valid artifacts — random values as the
   printer writes them, a witness file, a metrics snapshot, a trace
   event line — with one to four bytes replaced, inserted or deleted
   must parse to [Ok] or to an [Error] positioned inside the input
   ("at P: ..." with 0 <= P <= length). An [Ok] value must print back
   to text the parser accepts. The edit bytes lean on JSON's own
   syntax, so most mutants get past the first character. *)
let prop_json_survives_byte_edits =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "seed"; "plan"; "\195\169"; "x\"y"; "" ] in
  let value =
    sized_size (int_bound 3)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 return J.Null;
                 map (fun b -> J.Bool b) bool;
                 map (fun i -> J.Int i) (oneof [ small_signed_int; int ]);
                 map (fun f -> J.Float f) (oneofl [ 0.125; -2.5e-7; 1e20; 3. ]);
                 map (fun s -> J.Str s) (string_size ~gen:char (int_bound 8));
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> J.List l)
                     (list_size (int_bound 4) (self (depth - 1))) );
                 ( 1,
                   map
                     (fun l -> J.Obj l)
                     (list_size (int_bound 4) (pair key (self (depth - 1)))) );
               ])
  in
  let e =
    {
      S.kind = S.Instant;
      name = "deliver";
      cat = "net";
      track = 3;
      ts = 17;
      args = [ ("src", J.Int 1); ("hops", J.Int 4); ("why", J.Str "a\"b\n") ];
    }
  in
  let artifacts =
    [
      {|{"class":"11d375a62583849e","fleet_seed":9,"config":{"n":4,"t":0,"quorum":2,"membership":null},"plan":["deliver 2>0","enter 5"],"ratio":0.25,"reason":"caf\u00e9 \ud83d\ude00"}|};
      M.snapshot_string ();
      J.to_string (S.event_json e);
    ]
  in
  let chars s = List.of_seq (String.to_seq s) in
  let byte =
    frequency
      [
        (3, oneofl (chars "{}[]\":,\\ntfu0123456789.eE+-"));
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let text_gen =
    oneof [ oneofl artifacts; map J.to_string value ] >>= fun text ->
    list_size (int_range 1 4)
      (triple (int_range 0 2) (int_range 0 max_int) byte)
    >|= fun edits ->
    List.fold_left
      (fun t (kind, at, b) ->
        let len = String.length t in
        let at = if len = 0 then 0 else at mod len in
        match kind with
        | 0 when len > 0 -> String.mapi (fun i c -> if i = at then b else c) t
        | 1 -> String.sub t 0 at ^ String.make 1 b ^ String.sub t at (len - at)
        | _ when len > 0 -> String.sub t 0 at ^ String.sub t (at + 1) (len - at - 1)
        | _ -> t)
      text edits
  in
  QCheck.Test.make ~name:"json parser survives byte edits" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") text_gen)
    (fun text ->
      match J.of_string text with
      | exception exn ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string exn)
      | Error err -> (
          match Scanf.sscanf_opt err "at %d: %_s" (fun p -> p) with
          | Some p when p >= 0 && p <= String.length text -> true
          | _ -> QCheck.Test.fail_reportf "error not positioned: %s" err)
      | Ok v -> (
          match J.of_string (J.to_string v) with
          | Ok _ -> true
          | Error err -> QCheck.Test.fail_reportf "reprint rejected: %s" err))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_registry () =
  M.reset ();
  let c = M.counter "test.ops" in
  let c' = M.counter "test.ops" in
  M.inc c;
  M.add c' 4;
  Alcotest.(check int) "registration is idempotent" 5 (M.counter_value c);
  let g = M.gauge "test.depth" in
  M.set g 3;
  M.set_max g 2;
  Alcotest.(check int) "set_max keeps high-watermark" 3 (M.gauge_value g);
  M.set_max g 9;
  Alcotest.(check int) "set_max advances" 9 (M.gauge_value g);
  (match M.gauge "test.ops" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind mismatch must raise");
  (match M.histogram ~bounds:[| 1; 2 |] "test.hist_bounds" with
  | h -> (
      ignore (M.observe h 1);
      match M.histogram ~bounds:[| 1; 3 |] "test.hist_bounds" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "bounds mismatch must raise"));
  (* The snapshot is parseable JSON and contains the registered names. *)
  (match J.of_string (M.snapshot_string ()) with
  | Error e -> Alcotest.failf "snapshot unparseable: %s" e
  | Ok snap -> (
      match J.member "counters" snap with
      | Some (J.Obj fields) ->
          Alcotest.(check bool)
            "counter in snapshot" true
            (List.mem_assoc "test.ops" fields)
      | _ -> Alcotest.fail "snapshot has no counters object"));
  M.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (M.counter_value c);
  Alcotest.(check int) "reset zeroes gauges" 0 (M.gauge_value g)

let test_histogram_bucketing () =
  M.reset ();
  let h = M.histogram ~bounds:[| 1; 2; 4 |] "test.bucketing" in
  List.iter (M.observe h) [ 0; 1; 2; 3; 4; 5; 100 ];
  Alcotest.(check int) "observation count" 7 (M.observations h);
  (* v counts in the first bucket with v <= bound; above the last bound,
     the overflow bucket: 0,1 -> le_1; 2 -> le_2; 3,4 -> le_4; 5,100 -> inf *)
  Alcotest.(check (array int))
    "bucket assignment" [| 2; 1; 2; 2 |] (M.bucket_counts h);
  match J.of_string (M.snapshot_string ()) with
  | Error e -> Alcotest.failf "snapshot unparseable: %s" e
  | Ok snap -> (
      let open J in
      match
        Option.bind (member "histograms" snap) (member "test.bucketing")
      with
      | None -> Alcotest.fail "histogram missing from snapshot"
      | Some hj ->
          Alcotest.(check (option string))
            "sum" (Some "115")
            (Option.map to_string (member "sum" hj));
          Alcotest.(check (option string))
            "max" (Some "100")
            (Option.map to_string (member "max" hj));
          Alcotest.(check (option string))
            "overflow bucket" (Some "2")
            (Option.map to_string
               (Option.bind (member "buckets" hj) (member "inf"))))

(* Boundary values: an observation equal to a bucket bound lands in that
   bucket (le semantics), zero and negatives fall in the first bucket,
   and the first value past the last bound overflows. *)
let test_histogram_boundary_values () =
  M.reset ();
  let case name value expected =
    let h =
      M.histogram ~bounds:[| 1; 2; 4 |] (Printf.sprintf "test.bound_%s" name)
    in
    M.observe h value;
    Alcotest.(check (array int))
      (Printf.sprintf "%s -> bucket" name)
      expected (M.bucket_counts h)
  in
  case "exact_first" 1 [| 1; 0; 0; 0 |];
  case "exact_mid" 2 [| 0; 1; 0; 0 |];
  case "exact_last" 4 [| 0; 0; 1; 0 |];
  case "zero" 0 [| 1; 0; 0; 0 |];
  case "negative" (-3) [| 1; 0; 0; 0 |];
  case "just_over" 5 [| 0; 0; 0; 1 |]

let test_percentiles () =
  M.reset ();
  let h = M.histogram ~bounds:[| 1; 2; 4 |] "test.percentiles" in
  Alcotest.(check (option int)) "empty histogram" None (M.percentile h 50.);
  for _ = 1 to 50 do M.observe h 1 done;
  for _ = 1 to 40 do M.observe h 2 done;
  for _ = 1 to 10 do M.observe h 100 done;
  (* 50 of 100 observations are <= 1, 90 are <= 2; the last decile sits
     in the overflow bucket, whose only upper bound is the recorded max. *)
  Alcotest.(check (option int)) "p50" (Some 1) (M.percentile h 50.);
  Alcotest.(check (option int)) "p90" (Some 2) (M.percentile h 90.);
  Alcotest.(check (option int)) "p99 hits overflow -> max seen" (Some 100)
    (M.percentile h 99.)

let test_empty_histogram_max_is_null () =
  M.reset ();
  let h = M.histogram ~bounds:[| 1 |] "test.empty_hist" in
  ignore (M.observations h);
  match J.of_string (M.snapshot_string ()) with
  | Error e -> Alcotest.failf "snapshot unparseable: %s" e
  | Ok snap ->
      let open J in
      Alcotest.(check (option string))
        "max of empty histogram" (Some "null")
        (Option.map to_string
           (Option.bind
              (Option.bind (member "histograms" snap)
                 (member "test.empty_hist"))
              (member "max")))

(* ------------------------------------------------------------------ *)
(* Sinks and the logical clock                                         *)

let test_logical_clock_gating () =
  (* The clock ticks exactly when an event is constructed, and with the
     flight recorder armed (the default) every emission constructs one.
     Disarm it to observe pure sink gating. *)
  Obs.Recorder.armed := false;
  Fun.protect ~finally:(fun () -> Obs.Recorder.armed := true) @@ fun () ->
  let sink, events = memory () in
  Obs.Span.reset ();
  Obs.Span.instant "dropped-before";
  (* nil sink + disarmed recorder: nothing constructed, no tick *)
  S.with_sink sink (fun () ->
      Obs.Span.instant "a";
      Obs.Span.begin_ "b";
      Obs.Span.end_ "b");
  Obs.Span.instant "dropped-after";
  let ts = List.map (fun (e : S.event) -> e.ts) (events ()) in
  Alcotest.(check (list int))
    "disabled emissions do not tick the clock" [ 1; 2; 3 ] ts

(* The recorder keeps the last [capacity] events, untraced runs
   included, and dumps them as JSONL, one trace event object per line. *)
let test_recorder_ring () =
  let m = Obs.Recorder.mark () in
  Obs.Span.reset ();
  let extra = 10 in
  (* No sink installed: these are untraced, yet the armed recorder sees
     each constructed event (which is also why the clock advances). *)
  for i = 1 to Obs.Recorder.capacity + extra do
    Obs.Span.instant ~cat:"app" ~args:[ ("i", J.Int i) ] "tick"
  done;
  let dir = Filename.get_temp_dir_name () in
  (match Obs.Recorder.dump ~dir ~since:m ~reason:"test" () with
  | None -> Alcotest.fail "dump returned no path"
  | Some path ->
      Alcotest.(check string) "dump file name"
        (Filename.concat dir "flight-test.jsonl") path;
      let lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "one line per recorded event"
        Obs.Recorder.capacity (List.length lines);
      List.iter
        (fun line ->
          match J.of_string line with
          | Error e -> Alcotest.failf "unparseable dump line: %s" e
          | Ok j -> (
              match S.event_of_json j with
              | Some e when J.to_string (S.event_json e) = line -> ()
              | _ -> Alcotest.failf "dump line is not a trace event: %s" line))
        lines;
      Sys.remove path);
  let evs = recorded ~since:m () in
  Alcotest.(check int)
    "ring holds exactly capacity events" Obs.Recorder.capacity
    (List.length evs);
  match evs with
  | first :: _ ->
      Alcotest.(check (option string))
        "oldest surviving event is capacity back from the newest"
        (Some (string_of_int (extra + 1)))
        (Option.map J.to_string (List.assoc_opt "i" first.S.args))
  | [] -> Alcotest.fail "ring is empty"

(* A mark scopes a dump to what the ring recorded after it: the main
   domain's own events and those a pool replays, on either side of the
   mark. A dump without [since] still holds everything. *)
let test_recorder_dump_since () =
  let tick name = Obs.Span.instant ~cat:"app" name in
  let pool name =
    Sched.Par.run_units ~jobs:2 ~units:[| 0; 1; 2; 3 |]
      (fun _ -> tick name)
      (fun _ () -> ())
  in
  for _ = 1 to 5 do tick "pre" done;
  pool "pool-pre";
  let m = Obs.Recorder.mark () in
  for _ = 1 to 3 do tick "post" done;
  pool "pool-post";
  let counts evs =
    List.sort_uniq compare (List.map (fun (e : S.event) -> e.S.name) evs)
    |> List.map (fun name ->
           ( name,
             List.length (List.filter (fun (e : S.event) -> e.S.name = name) evs)
           ))
  in
  Alcotest.(check (list (pair string int)))
    "since the mark: exactly the post-mark events"
    [ ("pool-post", 4); ("post", 3) ]
    (counts (recorded ~since:m ()));
  (* A dump without [since] also holds earlier tests' events, which carry
     other names. *)
  let mine = [ "pool-post"; "pool-pre"; "post"; "pre" ] in
  Alcotest.(check (list (pair string int)))
    "without since: every recorded event"
    [ ("pool-post", 4); ("pool-pre", 4); ("post", 3); ("pre", 5) ]
    (counts
       (List.filter (fun (e : S.event) -> List.mem e.S.name mine) (recorded ())))

(* A second, shorter dump for the same reason replaces the first: the
   file holds exactly the second dump's line, none of the first's tail. *)
let test_recorder_dump_replaces () =
  let dir = Filename.get_temp_dir_name () in
  let dump_lines since =
    match Obs.Recorder.dump ~dir ~since ~reason:"replace-test" () with
    | None -> Alcotest.fail "dump returned no path"
    | Some path -> In_channel.with_open_text path In_channel.input_lines
  in
  let m = Obs.Recorder.mark () in
  for i = 1 to 50 do
    Obs.Span.instant ~cat:"app" ~args:[ ("i", J.Int i) ] "long"
  done;
  Alcotest.(check int) "first dump" 50 (List.length (dump_lines m));
  let m = Obs.Recorder.mark () in
  Obs.Span.instant ~cat:"app" "short";
  let second = dump_lines m in
  Sys.remove (Filename.concat dir "flight-replace-test.jsonl");
  Alcotest.(check (list (option string))) "file holds exactly the second dump"
    [ Some "short" ]
    (List.map
       (fun l ->
         match J.of_string l with
         | Ok j -> J.member_str "name" j
         | Error _ -> None)
       second)

(* Worker-domain events surface on the main domain: after the join each
   parallel unit's captured events replay just before its [k], in
   unit-index order, re-stamped by the main domain's clock — the trace
   is identical at any --jobs. *)
let test_worker_event_drain () =
  let sink, events = memory () in
  Obs.Span.reset ();
  S.with_sink sink (fun () ->
      let units = [| 0; 1; 2; 3; 4; 5 |] in
      let out = ref [] in
      Sched.Par.run_units ~jobs:2 ~units
        (fun u ->
          Obs.Span.instant ~cat:"sched" ~args:[ ("unit", J.Int u) ] "unit";
          u * 10)
        (fun i r -> out := (i, r) :: !out);
      Alcotest.(check (list (pair int int)))
        "results in unit order"
        [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40); (5, 50) ]
        (List.rev !out));
  let evs =
    List.filter (fun (e : S.event) -> e.S.name = "unit") (events ())
  in
  let units_seen =
    List.filter_map
      (fun (e : S.event) ->
        match List.assoc_opt "unit" e.S.args with
        | Some (J.Int u) -> Some u
        | _ -> None)
      evs
  in
  Alcotest.(check (list int))
    "worker events drain in unit-index order" [ 0; 1; 2; 3; 4; 5 ]
    units_seen;
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    "replayed stamps are strictly increasing main-domain ticks" true
    (increasing (List.map (fun (e : S.event) -> e.S.ts) evs))

(* A traced pool leaves in the flight recorder's ring exactly what the
   sequential loop leaves — names, args and stamps — because unit events
   reach the ring only through the main domain's in-order replay. *)
let test_recorder_jobs_invariant () =
  let ring jobs =
    let sink, _ = memory () in
    Obs.Span.reset ();
    let m = Obs.Recorder.mark () in
    S.with_sink sink (fun () ->
        Obs.Span.span "pool" (fun () ->
            Sched.Par.run_units ~jobs ~units:[| 0; 1; 2; 3; 4; 5; 6; 7 |]
              (fun u ->
                Obs.Span.span ~args:[ ("unit", J.Int u) ] "unit" (fun () ->
                    for i = 0 to u do
                      Obs.Span.instant ~cat:"test" ~track:u
                        ~args:[ ("i", J.Int i) ] "tick"
                    done))
              (fun i () ->
                Obs.Span.instant ~args:[ ("unit", J.Int i) ] "consumed")));
    recorded ~since:m ()
  in
  let sequential = ring 1 in
  Alcotest.(check int) "the sequential ring holds every event" 62
    (List.length sequential);
  let show (e : S.event) = J.to_string (S.event_json e) in
  Alcotest.(check (list string))
    "jobs=2 ring equals jobs=1 ring"
    (List.map show sequential)
    (List.map show (ring 2))

let test_span_closes_on_exception () =
  let sink, events = memory () in
  Obs.Span.reset ();
  (match
     S.with_sink sink (fun () ->
         Obs.Span.span "work" (fun () -> failwith "boom"))
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the exception to escape");
  match events () with
  | [ b; e ] ->
      Alcotest.(check bool) "begin first" true (b.S.kind = S.Begin);
      Alcotest.(check bool) "end second" true (e.S.kind = S.End);
      Alcotest.(check bool)
        "end carries exn arg" true
        (List.mem_assoc "exn" e.S.args)
  | evs -> Alcotest.failf "expected exactly B+E, got %d events"
             (List.length evs)

let test_event_json_roundtrip () =
  let e =
    {
      S.kind = S.Instant;
      name = "deliver";
      cat = "net";
      track = 3;
      ts = 17;
      args = [ ("src", J.Int 1); ("hops", J.Int 4) ];
    }
  in
  match S.event_of_json (S.event_json e) with
  | Some e' -> Alcotest.(check bool) "event roundtrip" true (e = e')
  | None -> Alcotest.fail "event_of_json rejected its own output"

(* Trace readers take a channel, as the CLI does: hand them [text]
   through a fresh temp file. *)
let with_trace_file text f =
  let file = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      In_channel.with_open_bin file f)

let read_events text =
  let acc = ref [] in
  with_trace_file text (fun ic ->
      S.iter_trace ic (fun e ->
          acc := e :: !acc;
          Ok ()))
  |> Result.map (fun () -> List.rev !acc)

(* The one trace-file reader behind [trace summary] and [report]: both
   encodings and flight dumps parse back to the events written, each
   malformed input is an [Error] carrying the CLI's message, not an
   exception, and the first fault in file order wins — the consumer's
   own included. *)
let test_iter_trace () =
  let ev kind name ts =
    { S.kind; name; cat = "app"; track = 1; ts; args = [ ("x", J.Int ts) ] }
  in
  let evs = [ ev S.Begin "run" 1; ev S.Instant "tick" 2; ev S.End "run" 3 ] in
  let render sink =
    let b = Buffer.create 256 in
    S.with_sink (sink (Buffer.add_string b)) (fun () -> List.iter S.emit evs);
    Buffer.contents b
  in
  let parsed what text =
    match read_events text with
    | Ok got -> got
    | Error m -> Alcotest.failf "%s rejected: %s" what m
  in
  let rejected what text =
    match read_events text with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error m -> m
  in
  Alcotest.(check bool) "jsonl" true (parsed "jsonl" (render S.jsonl) = evs);
  Alcotest.(check bool) "catapult" true
    (parsed "catapult" (render S.catapult) = evs);
  let one_line =
    "  ["
    ^ String.concat "," (List.map (fun e -> J.to_string (S.event_json e)) evs)
    ^ "]\012\n"
  in
  Alcotest.(check bool) "catapult on one line" true
    (parsed "one-line catapult" one_line = evs);
  let dump =
    String.concat "\n"
      (List.map
         (fun e ->
           match S.event_json e with
           | J.Obj fields -> J.to_string (J.Obj (("dom", J.Int 0) :: fields))
           | j -> J.to_string j)
         evs)
  in
  Alcotest.(check bool) "flight dump (dom ignored)" true
    (parsed "flight dump" dump = evs);
  Alcotest.(check int) "empty string" 0 (List.length (parsed "empty" ""));
  Alcotest.(check int) "empty array" 0 (List.length (parsed "empty" " [ ] "));
  let good = J.to_string (S.event_json (List.hd evs)) in
  Alcotest.(check string) "bad line 3"
    "line 3 unparseable (at 8: unexpected end of input)"
    (rejected "bad line 3" (String.concat "\n" [ good; good; "{\"name\":" ]));
  Alcotest.(check string) "non-event object"
    "line 2: object is not a trace event: {\"ph\":\"i\"}"
    (rejected "non-event" (good ^ "\n\n{\"ph\":\"i\"}"));
  Alcotest.(check string) "non-event array element"
    "element 1: object is not a trace event: {}"
    (rejected "non-event element" "[{}]");
  (* Where a whole-array parser would stop at a delimiter, not inside an
     element, the position and wording are still the reference's. *)
  let n = String.length good in
  List.iter
    (fun (text, at, what) ->
      let want =
        Printf.sprintf "unparseable catapult array (at %d: %s)" at what
      in
      Alcotest.(check string) text want (rejected text text);
      Alcotest.(check (result reject string)) (text ^ " (reference)")
        (Error want) (Oracle.Trace_reader.events_of_string text))
    [
      ("[{\"name\":\"run\"", 14, "expected '}'");
      ("[" ^ good ^ ",]", n + 2, {|bad number ""|});
      ("[}", 1, {|bad number ""|});
      ("[" ^ good ^ "}", n + 1, "expected ']'");
      ("[" ^ good ^ " x]", n + 2, "expected ']'");
      ("[" ^ good ^ ",", n + 2, "unexpected end of input");
      ("[" ^ good ^ "] \012 x", n + 3, "trailing garbage");
    ];
  (* A parse error later in the file does not hide an earlier fault. *)
  let first_fault =
    with_trace_file
      (String.concat "\n" [ good; good; "{" ])
      (fun ic ->
        let n = ref 0 in
        S.iter_trace ic (fun _ ->
            incr n;
            if !n = 2 then Error "consumer stops at 2" else Ok ()))
  in
  Alcotest.(check (result unit string)) "consumer's fault first"
    (Error "consumer stops at 2") first_fault

(* ------------------------------------------------------------------ *)
(* End-to-end traces                                                   *)

(* A fixed exploration workload: two straight-line writers, fully
   deterministic given the engine's DFS order. *)
let workload () =
  let straight len : (int, unit, unit) Sched.Program.t =
    let rec go k =
      if k = 0 then Sched.Program.return ()
      else Sched.Program.Write (k, fun () -> go (k - 1))
    in
    go len
  in
  Sched.Scheduler.start
    ~memory:
      (Sched.Memory.create ~n:2 ~budget:Bits.Width.Unbounded
         ~measure:Bits.Width.unbounded ~init:0)
    ~programs:(fun _ -> straight 2)
    ()

let capture_jsonl f =
  let b = Buffer.create 4096 in
  Obs.Span.reset ();
  S.with_sink (S.jsonl (Buffer.add_string b)) f;
  Buffer.contents b

(* The streaming reader against the whole-file reader it replaced
   ([Oracle.Trace_reader]), on byte-edited copies of real traces: a chaos
   run and an exploration (plus one event whose string argument holds an
   escaped backslash, a quote and a bracket) as JSONL, as JSONL with a
   blank line after every event, and as a catapult array. The reader must accept
   exactly what the reference accepts, with the same events. A rejection
   says where — the line or array element, or the character a
   whole-array parser stops at — and is the reference's own message,
   except that a catapult element that is not an event is named before a
   later parse error, which the reference reports first. *)
let prop_trace_reader_survives_byte_edits =
  let traces =
    lazy
      (let run () =
         ignore
           (Msgpass.Chaos.campaign ~seed:3 ~runs:1 (Msgpass.Chaos.sound ()));
         Obs.Span.instant ~cat:"app"
           ~args:[ ("text", J.Str "\\\"]") ]
           "quoted";
         ignore (Sched.Explore.explore ~init:workload (fun _ -> ()))
       in
       let catapult = Buffer.create 4096 in
       Obs.Span.reset ();
       S.with_sink (S.catapult (Buffer.add_string catapult)) run;
       let jsonl = capture_jsonl run in
       let spaced =
         String.concat "\n\n" (String.split_on_char '\n' jsonl)
       in
       [| jsonl; spaced; Buffer.contents catapult |])
  in
  let open QCheck.Gen in
  let chars s = List.of_seq (String.to_seq s) in
  let byte =
    frequency
      [
        (3, oneofl (chars "{}[]\":,\\\n ntfu0123456789BEi"));
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let edits =
    pair (int_range 0 2)
      (list_size (int_range 1 4)
         (triple (int_range 0 2) (int_range 0 max_int) byte))
  in
  let print (which, edits) =
    Printf.sprintf "trace %d, edits %s" which
      (String.concat "; "
         (List.map (fun (k, at, b) -> Printf.sprintf "%d@%d %C" k at b) edits))
  in
  QCheck.Test.make ~name:"trace reader survives byte edits" ~count:300
    (QCheck.make ~print edits)
    (fun (which, edits) ->
      let text =
        List.fold_left
          (fun t (kind, at, b) ->
            let len = String.length t in
            let at = at mod len in
            match kind with
            | 0 -> String.mapi (fun i c -> if i = at then b else c) t
            | 1 ->
                String.sub t 0 at ^ String.make 1 b ^ String.sub t at (len - at)
            | _ -> String.sub t 0 at ^ String.sub t (at + 1) (len - at - 1))
          (Lazy.force traces).(which) edits
      in
      let lines =
        List.length
          (List.filter
             (fun l -> String.trim l <> "")
             (String.split_on_char '\n' text))
      in
      let within lo hi x = lo <= x && x <= hi in
      let scan m fmt = Scanf.sscanf_opt m fmt (fun n -> n) in
      let array_error m = scan m "unparseable catapult array (at %d: %_s@)" in
      match (read_events text, Oracle.Trace_reader.events_of_string text) with
      | exception exn ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string exn)
      | Ok got, Ok want ->
          got = want || QCheck.Test.fail_reportf "accepted, other events"
      | Ok _, Error m -> QCheck.Test.fail_reportf "accepted; reference: %s" m
      | Error m, Ok _ -> QCheck.Test.fail_reportf "rejected: %s" m
      | Error m, Error want ->
          let positioned =
            match scan m "line %d unparseable (at %_d: %_s@)" with
            | Some n -> within 1 lines n
            | None -> (
                match scan m "line %d: object is not a trace event: %_s@!" with
                | Some n -> within 1 lines n
                | None -> (
                    match
                      scan m "element %d: object is not a trace event: %_s@!"
                    with
                    | Some n -> n >= 1
                    | None -> (
                        match array_error m with
                        | Some p -> within 0 (String.length text) p
                        | None -> false)))
          in
          let same =
            m = want
            || String.starts_with ~prefix:"element " m
               && array_error want <> None
          in
          (positioned || QCheck.Test.fail_reportf "error not positioned: %s" m)
          && (same
             || QCheck.Test.fail_reportf "rejected: %s; reference: %s" m want))

let test_trace_determinism_explore () =
  let run () =
    ignore (Sched.Explore.explore ~init:workload (fun _ -> ()))
  in
  let a = capture_jsonl run and b = capture_jsonl run in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 200);
  Alcotest.(check string) "byte-identical across runs" a b

let test_trace_determinism_chaos () =
  let run () =
    ignore
      (Msgpass.Chaos.campaign ~seed:11 ~runs:2 (Msgpass.Chaos.sound ()))
  in
  let a = capture_jsonl run and b = capture_jsonl run in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 200);
  Alcotest.(check string) "byte-identical across runs" a b;
  (* Every line is an independently parseable trace event. *)
  String.split_on_char '\n' a
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun line ->
         match J.of_string line with
         | Error e -> Alcotest.failf "unparseable JSONL line: %s" e
         | Ok j -> (
             match S.event_of_json j with
             | Some _ -> ()
             | None -> Alcotest.failf "line is not a trace event: %s" line))

let test_catapult_well_formed () =
  let b = Buffer.create 4096 in
  Obs.Span.reset ();
  S.with_sink
    (S.catapult (Buffer.add_string b))
    (fun () ->
      ignore
        (Msgpass.Chaos.campaign ~seed:3 ~runs:1 (Msgpass.Chaos.sound ()));
      ignore (Sched.Explore.explore ~init:workload (fun _ -> ())));
  let text = Buffer.contents b in
  (match J.of_string text with
  | Ok (J.List items) ->
      Alcotest.(check bool) "has events" true (List.length items > 10)
  | Ok _ -> Alcotest.fail "catapult output is not a JSON array"
  | Error e -> Alcotest.failf "catapult output unparseable: %s" e);
  (* Every element is an event of a known category, and spans balance per
     track: every E matches an open B, none is left open. *)
  match with_trace_file text Obs.Report.validate with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "catapult output invalid: %s" m

let test_hot_gating () =
  M.reset ();
  let steps = M.counter "sched.steps" in
  let width = M.histogram ~bounds:[| 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 64 |]
      "sched.register_bits"
  in
  M.hot := false;
  ignore (Sched.Explore.explore ~init:workload (fun _ -> ()));
  Alcotest.(check int) "cold: steps untallied" 0 (M.counter_value steps);
  Alcotest.(check int) "cold: widths unobserved" 0 (M.observations width);
  M.hot := true;
  Fun.protect ~finally:(fun () -> M.hot := false) (fun () ->
      ignore (Sched.Explore.explore ~init:workload (fun _ -> ())));
  Alcotest.(check bool)
    "hot: steps tallied" true
    (M.counter_value steps > 0);
  Alcotest.(check bool)
    "hot: widths observed" true
    (M.observations width > 0)

(* Domain-safety: metric cells take atomic updates, so concurrent tallies
   from several domains lose nothing — the exact totals come back. *)
let test_metrics_domain_safe () =
  M.reset ();
  let c = M.counter "par.domains.counter" in
  let g = M.gauge "par.domains.gauge" in
  let h = M.histogram ~bounds:[| 10; 100; 1_000 |] "par.domains.hist" in
  let domains = 4 and per_domain = 25_000 in
  let worker d () =
    for i = 1 to per_domain do
      M.inc c;
      M.set_max g ((d * per_domain) + i);
      M.observe h i
    done
  in
  let spawned = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no lost counter increments" (domains * per_domain)
    (M.counter_value c);
  Alcotest.(check int) "gauge holds the global max" (domains * per_domain)
    (M.gauge_value g);
  Alcotest.(check int) "no lost observations" (domains * per_domain)
    (M.observations h)

let test_explore_metrics_registry () =
  M.reset ();
  let r = Sched.Explore.explore ~init:workload (fun _ -> ()) in
  let counter name =
    M.counter_value (M.counter name)
  in
  Alcotest.(check int)
    "explore.nodes mirrors stats" r.Sched.Explore.stats.Sched.Explore.nodes
    (counter "explore.nodes");
  Alcotest.(check int)
    "explore.terminals mirrors stats"
    r.Sched.Explore.stats.Sched.Explore.terminals
    (counter "explore.terminals");
  Alcotest.(check int)
    "explore.peak_depth mirrors stats"
    r.Sched.Explore.stats.Sched.Explore.peak_depth
    (M.gauge_value (M.gauge "explore.peak_depth"))

(* ------------------------------------------------------------------ *)
(* Health report                                                       *)

module R = Obs.Report

(* Two tracks: track 0 nests a "<&>" span inside "run", track 1 runs one
   more "run". Rollups pair each End with the innermost open Begin on its
   own track. *)
let report_events =
  let ev kind ?(cat = "app") ?(track = 0) ts name =
    { S.kind; name; cat; track; ts; args = [] }
  in
  [
    ev S.Instant ~cat:"meta" 1 "meta";
    ev S.Begin 2 "run";
    ev S.Instant ~cat:"sched" 3 "step";
    ev S.Begin 4 "<&>";
    ev S.End 6 "<&>";
    ev S.End 9 "run";
    ev S.Begin ~track:1 10 "run";
    ev S.Instant ~cat:"sched" ~track:1 11 "step";
    ev S.End ~track:1 13 "run";
  ]

(* [events] folded as [boundedreg report] folds a trace file. *)
let report_of events =
  let text =
    String.concat ""
      (List.map (fun e -> J.to_string (S.event_json e) ^ "\n") events)
  in
  match with_trace_file text R.of_trace with
  | Ok r -> r
  | Error m -> Alcotest.failf "report input rejected: %s" m

let report_table headers =
  List.find_map
    (function
      | R.Table t when List.hd t.R.headers = List.hd headers -> Some t
      | _ -> None)
    (R.of_sources (report_of report_events))
  |> function
  | Some t ->
      Alcotest.(check (list string)) "headers" headers t.R.headers;
      t.R.rows
  | None -> Alcotest.failf "no %s table" (List.hd headers)

let test_report_rollups () =
  Alcotest.(check (list (list string)))
    "count, ticks, mean per span kind, largest first"
    [ [ "app/run"; "2"; "10"; "5.0" ]; [ "app/<&>"; "1"; "2"; "2.0" ] ]
    (report_table [ "span"; "count"; "ticks"; "mean" ])

let test_report_categories () =
  Alcotest.(check (list (list string)))
    "events per category"
    [ [ "app"; "6" ]; [ "meta"; "1" ]; [ "sched"; "2" ] ]
    (report_table [ "category"; "events" ])

let test_report_names () =
  Alcotest.(check (list (list string)))
    "events per name and kind"
    [
      [ "<&>"; "B"; "1" ];
      [ "<&>"; "E"; "1" ];
      [ "meta"; "i"; "1" ];
      [ "run"; "B"; "2" ];
      [ "run"; "E"; "2" ];
      [ "step"; "i"; "2" ];
    ]
    (report_table [ "event"; "kind"; "events" ])

let test_report_deterministic () =
  let md () = R.to_markdown (R.of_sources (report_of report_events)) in
  let html () = R.to_html (R.of_sources (report_of report_events)) in
  Alcotest.(check string) "markdown" (md ()) (md ());
  Alcotest.(check string) "html" (html ()) (html ())

let test_report_html_escapes () =
  let html = R.to_html (R.of_sources (report_of report_events)) in
  let contains sub =
    let n = String.length sub in
    let rec from i =
      i + n <= String.length html && (String.sub html i n = sub || from (i + 1))
    in
    from 0
  in
  Alcotest.(check bool) "escaped name present" true
    (contains "app/&lt;&amp;&gt;");
  Alcotest.(check bool) "raw name absent" false (contains "<&>")

(* [trace summary]'s rejections, through the fold the CLI calls: each
   input has one fault, and the message is the one the CLI prints after
   "invalid trace FILE: ". With spans left open on two tracks, the track
   named is the span table's first, not the first opened. *)
let test_report_validate_messages () =
  let ev ?(name = "run") ?(cat = "app") ph ts track =
    Printf.sprintf
      {|{"name":"%s","cat":"%s","ph":"%s","ts":%d,"pid":0,"tid":%d}|} name
      cat ph ts track
  in
  let lines ls = String.concat "\n" ls ^ "\n" in
  let rejected what text want =
    match with_trace_file text R.validate with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error m -> Alcotest.(check string) what want m
  in
  rejected "unknown category"
    (lines [ ev "B" 1 0; ev ~name:"x" ~cat:"bogus" "i" 2 0; ev "E" 3 0 ])
    {|unknown event category "bogus" (event "x")|};
  rejected "end without begin"
    (lines [ ev "B" 1 0; ev "E" 2 0; ev "E" 3 1 ])
    "span end without begin on track 1";
  rejected "unclosed, track 2 opened last"
    (lines [ ev "B" 1 1; ev "B" 2 2; ev "B" 3 2 ])
    "2 unclosed span(s) on track 2";
  rejected "unclosed, track 2 opened first"
    (lines [ ev "B" 1 2; ev "B" 2 1; ev "B" 3 1 ])
    "1 unclosed span(s) on track 2";
  rejected "bad line after blank lines"
    ("\n" ^ ev "B" 1 0 ^ "\n\n   \n" ^ ev "E" 2 0 ^ "\n\n  {\"name\":\n")
    "line 3 unparseable (at 10: unexpected end of input)";
  rejected "non-event element"
    ("[\n" ^ ev "B" 1 0 ^ "\n,\n{\"ph\":\"i\"}\n,\n" ^ ev "E" 2 0 ^ "\n]\n")
    {|element 2: object is not a trace event: {"ph":"i"}|};
  rejected "torn array"
    ("[\n" ^ ev "B" 1 0 ^ ",\n{\"name\":\"ru")
    "unparseable catapult array (at 73: unterminated string)";
  rejected "array torn after an element"
    ("[\n" ^ ev "B" 1 0 ^ ",\n" ^ ev "E" 2 0 ^ "\n")
    "unparseable catapult array (at 120: expected ']')";
  (* Several faults: the first in file order. *)
  rejected "category before a parse error"
    (lines [ ev ~cat:"bogus" "i" 1 0; "{" ])
    {|unknown event category "bogus" (event "run")|}

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "error-positions" `Quick
            test_json_error_positions;
          Alcotest.test_case "unicode-escapes" `Quick
            test_json_unicode_escapes;
          QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_survives_byte_edits;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "bucketing" `Quick test_histogram_bucketing;
          Alcotest.test_case "bucket-boundaries" `Quick
            test_histogram_boundary_values;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "empty-max" `Quick
            test_empty_histogram_max_is_null;
          Alcotest.test_case "hot-gating" `Quick test_hot_gating;
          Alcotest.test_case "domain-safety" `Quick test_metrics_domain_safe;
          Alcotest.test_case "explore-mirror" `Quick
            test_explore_metrics_registry;
        ] );
      ( "sink",
        [
          Alcotest.test_case "clock-gating" `Quick test_logical_clock_gating;
          Alcotest.test_case "span-exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "event-roundtrip" `Quick
            test_event_json_roundtrip;
          Alcotest.test_case "iter-trace" `Quick test_iter_trace;
          QCheck_alcotest.to_alcotest prop_trace_reader_survives_byte_edits;
          Alcotest.test_case "recorder-ring" `Quick test_recorder_ring;
          Alcotest.test_case "recorder-dump-replaces" `Quick
            test_recorder_dump_replaces;
          Alcotest.test_case "recorder-dump-since" `Quick
            test_recorder_dump_since;
          Alcotest.test_case "worker-drain" `Quick test_worker_event_drain;
          Alcotest.test_case "recorder-jobs-invariant" `Quick
            test_recorder_jobs_invariant;
        ] );
      ( "report",
        [
          Alcotest.test_case "rollups" `Quick test_report_rollups;
          Alcotest.test_case "categories" `Quick test_report_categories;
          Alcotest.test_case "names" `Quick test_report_names;
          Alcotest.test_case "deterministic" `Quick test_report_deterministic;
          Alcotest.test_case "html-escape" `Quick test_report_html_escapes;
          Alcotest.test_case "validate messages" `Quick
            test_report_validate_messages;
        ] );
      ( "trace",
        [
          Alcotest.test_case "determinism-explore" `Quick
            test_trace_determinism_explore;
          Alcotest.test_case "determinism-chaos" `Quick
            test_trace_determinism_chaos;
          Alcotest.test_case "catapult" `Quick test_catapult_well_formed;
        ] );
    ]
