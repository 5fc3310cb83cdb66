(* Tests for lib/msgpass: topology, codecs, alternating bit, ABD, routing,
   and the full Theorem 1.3 pipeline. *)

module Q = Bits.Rational
module T = Msgpass.Topology
module Codec = Msgpass.Codec
module Wire = Msgpass.Wire
module AB = Msgpass.Alt_bit
module H = Tasks.Harness

let test_topology_connectivity () =
  List.iter
    (fun (n, t) ->
      let ring = T.augmented_ring ~n ~t in
      Alcotest.(check bool)
        (Printf.sprintf "ring n=%d t=%d is (t+1)-connected" n t)
        true
        (Oracle.Props.survivor_connected ring ~faults:t);
      Alcotest.(check int) "out-degree t+1" (t + 1)
        (List.length (T.successors ring 0));
      Alcotest.(check int) "in-degree t+1" (t + 1)
        (List.length (T.predecessors ring 0)))
    [ (3, 1); (5, 1); (5, 2); (7, 2); (7, 3) ]

let test_topology_not_overconnected () =
  (* Removing t+1 consecutive nodes disconnects the ring: the construction
     is tight. *)
  let ring = T.augmented_ring ~n:7 ~t:2 in
  Alcotest.(check bool) "t+1 consecutive faults disconnect" false
    (Oracle.Props.strongly_connected ring ~without:[ 1; 2; 3 ])

(* The stored predecessor lists are the in-neighbours in ascending order:
   the filter over every node's successors. *)
let test_topology_predecessors () =
  for n = 2 to 8 do
    for t = 0 to n - 2 do
      let ring = T.augmented_ring ~n ~t in
      for i = 0 to n - 1 do
        let want =
          List.filter
            (fun j -> List.mem i (T.successors ring j))
            (List.init n Fun.id)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "n=%d t=%d predecessors %d" n t i)
          want (T.predecessors ring i)
      done
    done
  done

let test_codec_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "string->bits->string" s
        (Codec.string_of_bits (Codec.bits_of_string s)))
    [ ""; "a"; "hello world"; String.init 17 Char.chr ]

let test_codec_framing () =
  (* Several frames through one deframer, one bit at a time. *)
  let messages = [ "alpha"; ""; "x"; "12:34:56" ] in
  let stream = List.concat_map Codec.encode messages in
  let d = Codec.decoder () in
  let received =
    List.filter_map (fun bit -> Codec.decode d bit) stream
  in
  Alcotest.(check (list string)) "frames recovered in order" messages received

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrip (random strings)" ~count:200
    QCheck.(string_of_size (Gen.int_bound 40))
    (fun s -> Codec.string_of_bits (Codec.bits_of_string s) = s)

let prop_framing_stream =
  QCheck.Test.make ~name:"framing recovers random message streams" ~count:100
    QCheck.(list_of_size (Gen.int_bound 5) (string_of_size (Gen.int_bound 12)))
    (fun messages ->
      let d = Codec.decoder () in
      let received =
        List.filter_map (fun b -> Codec.decode d b)
          (List.concat_map Codec.encode messages)
      in
      received = messages)

let test_wire_roundtrip () =
  let chunks = [ "a"; ""; "12:3"; "::"; String.make 50 'z' ] in
  Alcotest.(check (list string)) "enc/dec" chunks (Wire.dec (Wire.enc chunks))

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire enc/dec (random chunk lists)" ~count:200
    QCheck.(list_of_size (Gen.int_bound 6) (string_of_size (Gen.int_bound 20)))
    (fun chunks -> Wire.dec (Wire.enc chunks) = chunks)

(* ----- packed ABD messages (Codec.Pack) ----- *)

(* Re-encode one ABD message from encoding [src] into encoding [dst]. *)
let transcode (src : ('v, 'a) Msgpass.Abd.encoding)
    (dst : ('v, 'b) Msgpass.Abd.encoding) m =
  let module A = Msgpass.Abd in
  let kind = src.kind m and reg = src.reg m and op = src.op m in
  if kind = A.kind_write_req then
    dst.write_req ~reg ~ts:(src.ts m) ~value:(src.value m) ~op
  else if kind = A.kind_write_ack then dst.write_ack ~reg ~op
  else if kind = A.kind_read_req then dst.read_req ~reg ~op
  else dst.read_reply ~reg ~ts:(src.ts m) ~value:(src.value m) ~op

(* Every field of the bit-packed layout — tag:2 | reg:10 | op:16 | ts:16 |
   value:18 — must decode to exactly what was encoded, including at the
   field boundaries (0, 1, max-1, max) where a mask or shift off by one
   would silently alias neighbouring fields. The roundtrip through the
   boxed Abd.msg pins the two encodings to each other. *)
let prop_pack_roundtrip_boundary =
  let module P = Msgpass.Pack in
  let field max =
    QCheck.Gen.(
      oneof [ oneofl [ 0; 1; max - 1; max ]; int_bound max ])
  in
  let gen =
    QCheck.Gen.(
      int_bound 3 >>= fun tag ->
      field P.max_reg >>= fun reg ->
      field P.max_op >>= fun op ->
      field P.max_ts >>= fun ts ->
      field P.max_value >>= fun value -> return (tag, reg, op, ts, value))
  in
  QCheck.Test.make ~name:"Pack roundtrips every field at boundary widths"
    ~count:400 (QCheck.make gen)
    (fun (tag, reg, op, ts, value) ->
      let module A = Msgpass.Abd in
      let e = Msgpass.Pack.encoding in
      let m =
        if tag = A.kind_write_req then e.write_req ~reg ~ts ~value ~op
        else if tag = A.kind_write_ack then e.write_ack ~reg ~op
        else if tag = A.kind_read_req then e.read_req ~reg ~op
        else e.read_reply ~reg ~ts ~value ~op
      in
      let carries_ts = tag = A.kind_write_req || tag = A.kind_read_reply in
      e.kind m = tag && e.reg m = reg && e.op m = op
      && e.ts m = (if carries_ts then ts else 0)
      && e.value m = (if carries_ts then value else 0)
      && transcode A.boxed e (transcode e A.boxed m) = m
      && m >= 0)

let test_pack_fits_static_boundaries () =
  let module P = Msgpass.Pack in
  let fits = P.fits_static in
  Alcotest.(check bool) "exact bounds fit" true
    (fits ~registers:(P.max_reg + 1) ~writes:P.max_ts ~max_ops:P.max_op);
  Alcotest.(check bool) "one register too many" false
    (fits ~registers:(P.max_reg + 2) ~writes:1 ~max_ops:1);
  Alcotest.(check bool) "one write too many" false
    (fits ~registers:1 ~writes:(P.max_ts + 1) ~max_ops:1);
  Alcotest.(check bool) "one op too many" false
    (fits ~registers:1 ~writes:1 ~max_ops:(P.max_op + 1));
  (* The value field is wider than the timestamp field, so the write
     count binds through max_ts first — a config that fits never
     overflows either. *)
  Alcotest.(check bool) "ts is the binding field" true
    (P.max_value > P.max_ts)

(* One ABD, two message encodings: the same seeded run driven once with
   {!Msgpass.Pack} ints and once with boxed [Abd.msg] values must send the
   same messages in the same order, complete the same operations with the
   same values, and leave the same register copies — for sound quorums
   and for the t = n/2 frontier quorum alike. Duplication is on, so a
   duplicated ack or reply reaches the counting paths too. *)
let abd_encoding_run (type m) (enc : (int, m) Msgpass.Abd.encoding) ~n
    ~quorum ~ops ~seed =
  let module A = Msgpass.Abd in
  let sends = ref [] and completions = ref [] in
  let abds = Array.make n None in
  let nodes ~send me =
    let script = Bits.Rng.make ((seed * 64) + me) in
    let left = ref ops in
    let abd =
      A.create ~n ~t:0 ~quorum ~registers:n ~init:(fun _ -> 0) ~encoding:enc
        ~send:(fun ~dst m ->
          sends := (me, dst, transcode enc A.boxed m) :: !sends;
          send ~dst m)
        ()
    in
    abds.(me) <- Some abd;
    let start () =
      if !left > 0 then begin
        decr left;
        if Bits.Rng.bool script then
          A.begin_write abd ~reg:me ((me * 100) + !left)
        else A.begin_read abd ~reg:(Bits.Rng.int script n)
      end
    in
    {
      Msgpass.Net.on_start = start;
      on_message =
        (fun ~from m ->
          if A.handle abd ~from m then begin
            completions := (me, A.result abd) :: !completions;
            start ()
          end);
      on_leave = ignore;
    }
  in
  let ft = Msgpass.Faults.wrap (Msgpass.Net.create ~n ~nodes ()) in
  Msgpass.Faults.run_random ~rng:(Bits.Rng.make seed)
    ~profile:{ Msgpass.Faults.reliable with duplicate = 0.1; defer = 0.1 }
    ~max_events:5_000 ft;
  let copies =
    Array.map
      (fun a -> List.init n (A.copy (Option.get a)))
      abds
  in
  (List.rev !sends, List.rev !completions, copies)

let prop_abd_encodings_agree =
  QCheck.Test.make ~name:"ABD: packed and boxed encodings agree" ~count:200
    QCheck.(
      quad (int_range 2 8) bool (int_range 1 4) (int_bound 1_000_000))
    (fun (n, frontier, ops, seed) ->
      let quorum = if frontier then n / 2 else n - ((n - 1) / 2) in
      let packed =
        abd_encoding_run Msgpass.Pack.encoding ~n ~quorum ~ops ~seed
      in
      let boxed = abd_encoding_run Msgpass.Abd.boxed ~n ~quorum ~ops ~seed in
      let sends, completions, _ = packed in
      sends <> [] && completions <> [] && packed = boxed)

let test_wire_envelope_codec () =
  let codec =
    Wire.envelope_codec
      (Wire.abd_msg_codec (Wire.cell_codec Wire.rational_codec Wire.int_codec))
  in
  let envelope =
    {
      Msgpass.Router.origin = 2;
      seq = 41;
      dest = 0;
      body =
        Msgpass.Abd.Write_req
          { reg = 1; ts = 7; value = Msgpass.Interp.Coord (Q.make 3 7); op = 9 };
    }
  in
  let back = codec.Wire.of_string (codec.Wire.to_string envelope) in
  Alcotest.(check bool) "envelope roundtrip" true (envelope = back)

(* Alternating bit: push messages through polled register fields under a
   random polling schedule. *)
let test_alt_bit_channel () =
  List.iter
    (fun chunk ->
      let rng = Bits.Rng.make (100 + chunk) in
      let messages = List.init 8 (fun i -> Printf.sprintf "msg-%d!" i) in
      let sender = AB.sender ~chunk in
      List.iter (AB.send_string sender) messages;
      let receiver = AB.receiver () in
      let data_field = ref (AB.initial_field ~chunk) in
      let ack_field = ref 0 in
      let received = ref [] in
      let steps = ref 0 in
      while
        (not (AB.sender_idle sender))
        && !steps < 100_000
      do
        incr steps;
        if Bits.Rng.bool rng then (
          match AB.sender_poll sender ~ack_seen:!ack_field with
          | Some field -> data_field := field
          | None -> ())
        else begin
          let msgs = AB.receiver_poll receiver ~data_seen:!data_field in
          received := !received @ msgs;
          ack_field := AB.receiver_ack receiver
        end
      done;
      (* Drain the last in-flight chunk. *)
      let msgs = AB.receiver_poll receiver ~data_seen:!data_field in
      received := !received @ msgs;
      Alcotest.(check (list string))
        (Printf.sprintf "FIFO delivery (chunk=%d)" chunk)
        messages !received)
    [ 1; 3; 8 ]

let prop_alt_bit_fifo =
  QCheck.Test.make ~name:"alt-bit: FIFO for random chunks and messages"
    ~count:60
    QCheck.(
      triple (int_range 1 10)
        (list_of_size (Gen.int_bound 5) (string_of_size (Gen.int_bound 10)))
        (int_range 0 10_000))
    (fun (chunk, messages, seed) ->
      let rng = Bits.Rng.make seed in
      let sender = AB.sender ~chunk in
      List.iter (AB.send_string sender) messages;
      let receiver = AB.receiver () in
      let data = ref (AB.initial_field ~chunk) in
      let received = ref [] in
      let steps = ref 0 in
      while (not (AB.sender_idle sender)) && !steps < 100_000 do
        incr steps;
        if Bits.Rng.bool rng then (
          match
            AB.sender_poll sender ~ack_seen:(AB.receiver_ack receiver)
          with
          | Some f -> data := f
          | None -> ())
        else received := !received @ AB.receiver_poll receiver ~data_seen:!data
      done;
      received := !received @ AB.receiver_poll receiver ~data_seen:!data;
      !received = messages)

(* A fault-free random schedule, with optional (pid, event) crashes. *)
let run_reliable ?(crash_at = []) rng net =
  let profile = { Msgpass.Faults.reliable with crash_at } in
  Msgpass.Faults.run_random ~rng ~profile ~max_events:100_000
    (Msgpass.Faults.wrap net)

(* Scripted delivery on the base substrate: per-channel FIFO is an
   invariant of Net itself, whatever delivery order the adversary picks. *)
let two_node_net received =
  Msgpass.Net.create ~n:2 ~nodes:(Oracle.Netref.lift (fun pid ->
      {
        Oracle.Netref.on_start =
          (fun () -> if pid = 0 then [ (1, "a"); (1, "b"); (1, "c") ] else []);
        on_message =
          (fun ~from:_ m ->
            received := !received @ [ m ];
            []);
        on_leave = (fun () -> []);
      }))
    ()

let test_net_scripted_delivery () =
  let received = ref [] in
  let net = two_node_net received in
  Alcotest.(check int) "three messages queued" 3
    (Msgpass.Net.pending net ~src:0 ~dst:1);
  Alcotest.(check int) "reverse channel empty" 0
    (Msgpass.Net.pending net ~src:1 ~dst:0);
  Alcotest.(check bool) "deliver head" true
    (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check int) "two left" 2 (Msgpass.Net.pending net ~src:0 ~dst:1);
  Alcotest.(check bool) "second" true (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check bool) "third" true (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check bool) "empty channel refuses" false
    (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "FIFO order" [ "a"; "b"; "c" ] !received

let test_net_deliver_respects_crash () =
  let received = ref [] in
  let net = two_node_net received in
  Msgpass.Net.crash net 1;
  Alcotest.(check bool) "crashed destination refuses" false
    (Msgpass.Net.deliver net ~src:0 ~dst:1);
  Alcotest.(check int) "message stays queued" 3
    (Msgpass.Net.pending net ~src:0 ~dst:1);
  Alcotest.(check (list string)) "nothing handled" [] !received

let prop_net_random_fifo =
  (* Whatever channel order the random driver picks, each channel's
     messages arrive in send order. *)
  QCheck.Test.make ~name:"random delivery keeps per-channel FIFO" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let n = 3 in
      let received = Array.make n [] in
      let net =
        Msgpass.Net.create ~n ~nodes:(Oracle.Netref.lift (fun pid ->
            {
              Oracle.Netref.on_start =
                (fun () ->
                  List.concat_map
                    (fun dst ->
                      if dst = pid then []
                      else List.init 4 (fun i -> (dst, (pid, i))))
                    (List.init n Fun.id));
              on_message =
                (fun ~from:_ m ->
                  received.(pid) <- m :: received.(pid);
                  []);
              on_leave = (fun () -> []);
            }))
          ()
      in
      run_reliable (Bits.Rng.make seed) net;
      (* Per (receiver, sender): sequence numbers strictly increase. *)
      Array.for_all
        (fun log ->
          let per_sender = Hashtbl.create 4 in
          List.for_all
            (fun (src, i) ->
              let prev =
                Option.value (Hashtbl.find_opt per_sender src) ~default:(-1)
              in
              Hashtbl.replace per_sender src i;
              i > prev)
            (List.rev log))
        received)

let test_faults_defer_breaks_fifo () =
  (* The only way to see non-FIFO per-channel delivery is through the
     Faults layer's defer action — the base substrate above stays FIFO. *)
  let module F = Msgpass.Faults in
  let received = ref [] in
  let ft = F.wrap (two_node_net received) in
  let ch = { F.src = 0; dst = 1 } in
  let replay plan = F.replay_compiled ft (F.compile ~n:2 plan) in
  replay [ F.Defer ch ];
  Alcotest.(check int) "defer head" 1 (F.events ft);
  replay [ F.Deliver ch; F.Deliver ch; F.Deliver ch ];
  Alcotest.(check (list string)) "reordered delivery" [ "b"; "c"; "a" ]
    !received;
  (* The perturbation is part of the replayable record. *)
  Alcotest.(check (list string)) "record holds all four actions"
    [ "defer 0>1"; "deliver 0>1"; "deliver 0>1"; "deliver 0>1" ]
    (List.map F.action_to_string (F.decompile (F.compiled_plan ft)))

let test_faults_drop_and_duplicate () =
  let module F = Msgpass.Faults in
  let received = ref [] in
  let ft = F.wrap (two_node_net received) in
  let ch = { F.src = 0; dst = 1 } in
  let replay plan = F.replay_compiled ft (F.compile ~n:2 plan) in
  replay [ F.Drop ch ];
  Alcotest.(check int) "drop head" 1 (F.events ft);
  replay [ F.Duplicate ch ];
  Alcotest.(check int) "duplicate new head" 2 (F.events ft);
  replay (List.init 8 (fun _ -> F.Deliver ch));
  Alcotest.(check (list string)) "lost a, duplicated b" [ "b"; "c"; "b" ]
    !received;
  Alcotest.(check int) "deliveries on an empty channel are not recorded" 5
    (F.events ft)

(* Replays a list-form plan: compiling checks every operand, so an
   out-of-range one raises [Invalid_argument] before anything runs. *)
let run_plan config plan =
  Msgpass.Chaos.run_compiled config
    (Msgpass.Faults.compile ~n:config.Msgpass.Chaos.n plan)

(* Regression: chaos campaigns are a pure function of the seed. Every
   shrunk counterexample in EXPERIMENTS.md is quoted by seed, so a drift
   in the RNG stream or the fault layer would silently invalidate them. *)
let test_chaos_deterministic () =
  let module C = Msgpass.Chaos in
  List.iter
    (fun (label, config, seed) ->
      let a = C.run_random ~seed config in
      let b = C.run_random ~seed config in
      Alcotest.(check bool)
        (label ^ ": identical fault plan")
        true
        (a.C.plan = b.C.plan);
      Alcotest.(check bool)
        (label ^ ": identical verdict")
        true
        (C.failed a = C.failed b);
      Alcotest.(check int) (label ^ ": identical event count") a.C.events
        b.C.events;
      (* And the plan really replays to the same verdict. *)
      let r = run_plan config (Msgpass.Faults.decompile a.C.plan) in
      Alcotest.(check bool)
        (label ^ ": replay agrees")
        true
        (C.failed r = C.failed a))
    [
      ("sound", C.sound (), 7);
      ("frontier violation", C.frontier (), 127);
      ("churn", C.churn (), 7);
      ("churn frontier violation", C.churn_frontier (), 29);
    ]

(* Parallel campaigns must be byte-identical to sequential ones: outcomes
   are computed on worker domains but tallied on the main domain in seed
   order, so the verdict, the totals, and the shrunk counterexample are
   all invariant in [jobs]. *)
let test_chaos_jobs_invariant () =
  let module C = Msgpass.Chaos in
  List.iter
    (fun (label, config, seed, runs) ->
      let campaign jobs = C.campaign ~jobs ~seed ~runs config in
      let seq = campaign 1 in
      let seq_pp = Format.asprintf "%a" C.pp_campaign seq in
      List.iter
        (fun jobs ->
          let par = campaign jobs in
          Alcotest.(check string)
            (Printf.sprintf "%s: jobs=%d renders identically" label jobs)
            seq_pp
            (Format.asprintf "%a" C.pp_campaign par);
          Alcotest.(check int)
            (Printf.sprintf "%s: jobs=%d same violations" label jobs)
            seq.C.violations par.C.violations;
          Alcotest.(check int)
            (Printf.sprintf "%s: jobs=%d same event total" label jobs)
            seq.C.total_events par.C.total_events;
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d same shrunk plan" label jobs)
            true
            (Option.map (fun f -> f.C.shrunk) seq.C.first
            = Option.map (fun f -> f.C.shrunk) par.C.first))
        [ 2; 4 ])
    [
      ("sound", C.sound (), 1, 50);
      ("frontier violation", C.frontier (), 127, 10);
      ("churn", C.churn (), 1, 30);
      ("churn frontier violation", C.churn_frontier (), 29, 5);
    ]

(* The seed in each [chaos.run] instant of a traced campaign is that
   run's replay handle: [run_random ~seed] must give the instant's
   verdict, event count and completed count, and for the first
   violating seed, the plan and history the campaign shrank. The
   instant carries nothing else. *)
let test_chaos_traced_seed_replay () =
  let module C = Msgpass.Chaos in
  let module S = Obs.Sink in
  List.iter
    (fun (label, config, seed, runs) ->
      let acc = ref [] in
      let sink = { S.emit = (fun e -> acc := e :: !acc); flush = ignore } in
      let events () = List.rev !acc in
      let c = S.with_sink sink (fun () -> C.campaign ~seed ~runs config) in
      let first =
        match c.C.first with
        | Some f -> f
        | None -> Alcotest.failf "%s: the campaign found no violation" label
      in
      let instants =
        List.filter
          (fun (e : S.event) -> e.kind = S.Instant && e.name = "chaos.run")
          (events ())
      in
      Alcotest.(check int) (label ^ ": one instant per run") c.C.runs
        (List.length instants);
      let first_violating = ref None in
      List.iter
        (fun (e : S.event) ->
          let say what = Printf.sprintf "%s: %s" label what in
          Alcotest.(check (list string))
            (say "instant arguments")
            [ "seed"; "verdict"; "events"; "completed" ]
            (List.map fst e.args);
          let int k =
            match List.assoc k e.args with
            | Obs.Json.Int i -> i
            | _ -> Alcotest.failf "%s: %s is not an int" label k
          in
          let s = int "seed" in
          let o = C.run_random ~seed:s config in
          let verdict =
            if C.failed o then "nonlinearizable" else "linearizable"
          in
          Alcotest.(check bool)
            (say (Printf.sprintf "seed %d verdict" s))
            true
            (List.assoc "verdict" e.args = Obs.Json.Str verdict);
          Alcotest.(check int) (say (Printf.sprintf "seed %d events" s))
            (int "events") o.C.events;
          Alcotest.(check int) (say (Printf.sprintf "seed %d completed" s))
            (int "completed") o.C.completed;
          if C.failed o && !first_violating = None then
            first_violating := Some (s, o))
        instants;
      match !first_violating with
      | None -> Alcotest.failf "%s: no instant says nonlinearizable" label
      | Some (s, o) ->
          Alcotest.(check int)
            (label ^ ": first violating seed")
            first.C.seed s;
          Alcotest.(check bool) (label ^ ": same plan") true
            (o.C.plan = first.C.original.C.plan);
          Alcotest.(check bool) (label ^ ": same history") true
            (o.C.history = first.C.original.C.history))
    [
      ("frontier", C.frontier (), 123, 5);
      ("churn frontier", C.churn_frontier (), 25, 5);
    ]

(* ----- dynamic membership ----- *)

(* View algebra: activation (not mere entry) is what feeds the quorum,
   leaving wins over entering, and merge is the join of everything both
   sides know. *)
let test_membership_views () =
  let module M = Msgpass.Membership in
  let v = M.initial 3 in
  Alcotest.(check int) "initial cardinal" 3 (M.cardinal v);
  Alcotest.(check int) "initial quorum" 2 (M.quorum ~slack:0 v);
  let v = M.enter v 5 in
  Alcotest.(check bool) "entered joiner is current" true (M.mem v 5);
  Alcotest.(check int) "joiner not active: quorum base unchanged" 2
    (M.quorum ~slack:0 v);
  let v = M.activate v 5 in
  Alcotest.(check int) "activation widens the quorum base" 3
    (M.quorum ~slack:0 v);
  let v = M.leave v 0 in
  Alcotest.(check bool) "leaver is gone" false (M.mem v 0);
  Alcotest.(check int) "leaver out of the quorum base" 2
    (M.quorum ~slack:0 v);
  let w = M.leave (M.initial 3) 2 in
  let m = M.merge v w in
  Alcotest.(check bool) "merge commutes" true (m = M.merge w v);
  Alcotest.(check bool) "merge is idempotent" true (M.merge m m = m);
  Alcotest.(check bool) "merge includes both sides" true
    (Oracle.Props.includes m v && Oracle.Props.includes m w);
  Alcotest.(check bool) "leave wins over enter" false (M.mem m 2);
  Alcotest.(check int) "slack widens the quorum" 3 (M.quorum ~slack:1 v);
  Alcotest.(check int) "slack is capped at the active set" 2
    (M.quorum ~slack:9 (M.initial 2))

(* The schedule generator's contract: however the jitter rolls, no
   window-length stretch of the run ever sees more churn than the
   configured rate. *)
let prop_churn_schedule_rate_bounded =
  QCheck.Test.make ~name:"random churn schedules respect the window bound"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let module M = Msgpass.Membership in
      let rng = Bits.Rng.make seed in
      let c =
        M.random rng ~joiners:[ 5; 6; 7 ] ~leavers:[ 1; 2; 3; 4 ] ~rate:4
          ~window:16 ~span:400
      in
      Oracle.Props.max_in_window ~window:16 c <= 4)

(* Dynreg under a faultless FIFO transport: the join protocol activates
   a late arrival, a seeded writer's value reaches a joiner's read, and
   the emulation keeps answering after a departure. Every peer's [send]
   feeds one FIFO queue, drained in send order. *)
let test_dynreg_join_read_write () =
  let module D = Msgpass.Dynreg in
  let n = 4 in
  let initial = Msgpass.Membership.initial 3 in
  let q = Queue.create () in
  let peers =
    Array.init n (fun me ->
        D.create ~n ~me ~slack:0 ~registers:1 ~init:(fun _ -> 0) ~initial
          ~send:(fun ~dst m -> Queue.add (me, dst, m) q)
          ())
  in
  let drain () =
    while not (Queue.is_empty q) do
      let from, dst, m = Queue.pop q in
      D.handle peers.(dst) ~from m
    done
  in
  Alcotest.(check bool) "seeded member starts active" true
    (D.is_active peers.(0));
  Alcotest.(check bool) "joiner starts inactive" false (D.is_active peers.(3));
  D.start peers.(3);
  drain ();
  Alcotest.(check bool) "joiner activated" true (D.is_active peers.(3));
  Alcotest.(check bool) "activation completion" true
    (D.take_completion peers.(3) = Some D.Activated);
  D.begin_write peers.(0) ~reg:0 42;
  drain ();
  Alcotest.(check bool) "write completed" true
    (D.take_completion peers.(0) = Some D.Wrote);
  D.begin_read peers.(3) ~reg:0;
  drain ();
  (match D.take_completion peers.(3) with
  | Some (D.Read_value v) -> Alcotest.(check int) "joiner reads the write" 42 v
  | _ -> Alcotest.fail "joiner's read did not complete");
  D.farewell peers.(1);
  drain ();
  Alcotest.(check bool) "leaver deactivated" false (D.is_active peers.(1));
  D.begin_read peers.(2) ~reg:0;
  drain ();
  match D.take_completion peers.(2) with
  | Some (D.Read_value v) ->
      Alcotest.(check int) "read survives the departure" 42 v
  | _ -> Alcotest.fail "post-departure read did not complete"

(* Construction-time validation: unsatisfiable settings are errors,
   crashes > t clamps with a warning. *)
let test_chaos_validate () =
  let module C = Msgpass.Chaos in
  (match C.validate (C.sound ()) with
  | Ok (_, []) -> ()
  | Ok (_, w) -> Alcotest.failf "sound preset warned: %s" (String.concat "; " w)
  | Error e -> Alcotest.failf "sound preset rejected: %s" e);
  (match C.validate { (C.sound ()) with C.crashes = 5 } with
  | Ok (c, [ _ ]) -> Alcotest.(check int) "crashes clamped to t" c.C.t c.C.crashes
  | Ok (_, w) -> Alcotest.failf "expected one warning, got %d" (List.length w)
  | Error e -> Alcotest.failf "clampable config rejected: %s" e);
  List.iter
    (fun (label, config) ->
      match C.validate config with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "validate accepted %s" label)
    [
      ("quorum 0", { (C.sound ()) with C.quorum = Some 0 });
      ("quorum > n", { (C.sound ()) with C.quorum = Some 9 });
      ("n = 0", { (C.sound ()) with C.n = 0 });
      ("seed_members > n", C.churn ~n:4 ~seed_members:5 ());
      ("negative rate", C.churn ~rate:(-1) ());
      ("window 0", C.churn ~window:0 ());
      ("width 31", C.churn ~width_bits:31 ());
      ("n = 62", { (C.sound ()) with C.n = 62 });
      ("negative reads", { (C.sound ()) with C.reads = -1 });
      ("t = n/2 without quorum", C.sound ~n:4 ~t:2 ());
      ( "writes beyond the packed layout",
        { (C.sound ()) with C.writes = 70_000 } );
    ]

(* The churn mutation grammar is opt-in (static fleets must keep their
   published rng streams) and deterministic under it. *)
let test_fleet_churn_mutants () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.churn_frontier () in
  let base = Msgpass.Faults.decompile (C.run_random ~seed:29 config).C.plan in
  let children churn seed =
    let rng = Bits.Rng.make seed in
    List.init 64 (fun _ -> F.mutate rng ~n:config.C.n ~churn base)
  in
  Alcotest.(check bool) "churn mutants are seed-deterministic" true
    (children true 5 = children true 5);
  let has_churn p =
    List.exists
      (function Msgpass.Faults.Enter _ | Msgpass.Faults.Leave _ -> true | _ -> false)
      p
  in
  Alcotest.(check bool) "churn grammar is reachable" true
    (List.exists has_churn (children true 5));
  List.iter (fun m -> ignore (run_plan config m)) (children true 7);
  List.iter (fun m -> ignore (run_plan config m)) (children false 7)

(* ----- chaos fleet ----- *)

let fault_plan_gen_over operand =
  let open QCheck.Gen in
  let chan k =
    map2 (fun src dst -> k { Msgpass.Faults.src; dst }) operand operand
  in
  list_size (int_bound 40)
    (oneof
       [
         chan (fun ch -> Msgpass.Faults.Deliver ch);
         chan (fun ch -> Msgpass.Faults.Drop ch);
         chan (fun ch -> Msgpass.Faults.Duplicate ch);
         chan (fun ch -> Msgpass.Faults.Defer ch);
         map (fun pid -> Msgpass.Faults.Crash pid) operand;
         map (fun pid -> Msgpass.Faults.Enter pid) operand;
         map (fun pid -> Msgpass.Faults.Leave pid) operand;
       ])

let plan_arbitrary gen =
  QCheck.make ~print:(Format.asprintf "%a" Msgpass.Faults.pp_plan) gen

(* Operands the Net oracle below can run: a universe of 10 slots. *)
let fault_plan_arbitrary =
  plan_arbitrary (fault_plan_gen_over (QCheck.Gen.int_bound 9))

(* The corpus loader's general path: JSON text through plan_of_json. *)
let plan_of_text text =
  Result.bind (Obs.Json.of_string text) Msgpass.Faults.plan_of_json

(* The corpus on disk is human-editable: each action is stored as exactly
   what action_to_string prints, and the JSON codec inverts it. Operands
   run to 300, past the printer's 256-entry small-int table and across
   one-, two- and three-digit widths. *)
let prop_plan_codec_roundtrip =
  QCheck.Test.make ~name:"fault-plan codecs round-trip random plans"
    ~count:200
    (plan_arbitrary (fault_plan_gen_over (QCheck.Gen.int_bound 300)))
    (fun plan ->
      let json = Msgpass.Faults.plan_to_json plan in
      Msgpass.Faults.plan_of_json json = Ok plan
      && plan_of_text (Obs.Json.to_string json) = Ok plan)

(* The general action parser, kept verbatim as the oracle
   [action_of_string] must agree with on every input: same actions,
   same error texts. *)
let reference_action_of_string s =
  let open Msgpass.Faults in
  let s = String.trim s in
  let fail fmt = Printf.ksprintf (fun e -> Error e) fmt in
  match String.index_opt s ' ' with
  | None -> fail "cannot parse action %S: expected \"keyword arg\"" s
  | Some i -> (
      let kw = String.sub s 0 i in
      let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      let channel k =
        match String.index_opt rest '>' with
        | None -> fail "bad channel %S after %S: expected src>dst" rest kw
        | Some j -> (
            let src = String.trim (String.sub rest 0 j) in
            let dst =
              String.trim (String.sub rest (j + 1) (String.length rest - j - 1))
            in
            match (int_of_string_opt src, int_of_string_opt dst) with
            | Some src, Some dst -> Ok (k { src; dst })
            | None, _ -> fail "bad channel source %S after %S" src kw
            | _, None -> fail "bad channel destination %S after %S" dst kw)
      in
      let pid k =
        match int_of_string_opt rest with
        | Some p -> Ok (k p)
        | None -> fail "bad pid %S after %S" rest kw
      in
      match kw with
      | "deliver" -> channel (fun ch -> Deliver ch)
      | "drop" -> channel (fun ch -> Drop ch)
      | "dup" -> channel (fun ch -> Duplicate ch)
      | "defer" -> channel (fun ch -> Defer ch)
      | "crash" -> pid (fun p -> Crash p)
      | "enter" -> pid (fun p -> Enter p)
      | "leave" -> pid (fun p -> Leave p)
      | _ -> fail "unknown action keyword %S in %S" kw s)

let action_keywords = [ "deliver"; "drop"; "dup"; "defer"; "crash"; "enter"; "leave" ]
let channel_keyword kw = List.mem kw [ "deliver"; "drop"; "dup"; "defer" ]

let check_against_reference s =
  if Msgpass.Faults.action_of_string s <> reference_action_of_string s then
    Alcotest.failf "action_of_string %S disagrees with the reference" s

(* Every canonical action with operands 0..300, past the 8-bit opcode
   range. *)
let test_action_parser_canonical () =
  List.iter
    (fun kw ->
      for a = 0 to 300 do
        if channel_keyword kw then
          for b = 0 to 300 do
            check_against_reference (Printf.sprintf "%s %d>%d" kw a b)
          done
        else check_against_reference (Printf.sprintf "%s %d" kw a)
      done)
    action_keywords

(* Canonical strings and their near misses: padding, signs, radix
   prefixes, leading zeros, 20-digit operands, unknown keywords, missing
   pieces, empty strings. *)
let action_text_gen =
  let open QCheck.Gen in
  let operand =
    frequency
      [
        (6, map string_of_int (int_bound 300));
        (1, map (Printf.sprintf "+%d") (int_bound 300));
        (1, map (Printf.sprintf "-%d") (int_bound 300));
        (1, map (Printf.sprintf "0x%x") (int_bound 300));
        (1, map (Printf.sprintf "00%d") (int_bound 300));
        (1, map (Printf.sprintf " %d ") (int_bound 300));
        (1, map (String.concat "") (list_repeat 20 (map string_of_int (int_bound 9))));
        (1, oneofl [ ""; " "; "1_0"; "x"; "1>2"; "99999999999999999999" ]);
      ]
  in
  let keyword =
    frequency
      [ (8, oneofl action_keywords); (1, oneofl [ "zap"; "Deliver"; ""; "crash>" ]) ]
  in
  let sep = frequency [ (8, return " "); (1, oneofl [ ""; "  "; "\t"; ">" ]) ] in
  keyword >>= fun kw ->
  sep >>= fun sp ->
  operand >>= fun a ->
  operand >>= fun b ->
  (* Half the time the operand shape matches the keyword's kind. *)
  bool >>= fun two ->
  let text =
    if channel_keyword kw = two then kw ^ sp ^ a ^ ">" ^ b else kw ^ sp ^ a
  in
  frequency
    [
      (6, return text);
      (1, oneofl [ " " ^ text; text ^ " "; "\n" ^ text ^ "\t" ]);
      (1, return "");
    ]

let prop_action_parser_matches_reference =
  QCheck.Test.make ~name:"action parser agrees with its reference" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") action_text_gen)
    (fun s -> Msgpass.Faults.action_of_string s = reference_action_of_string s)

(* Origins are free text in the corpus: quotes, backslashes, control
   bytes and UTF-8 must be escaped exactly as the JSON printer does. *)
let origin_gen =
  let open QCheck.Gen in
  let piece =
    frequency
      [
        (4, map (String.make 1) (char_range 'a' 'z'));
        (1, oneofl [ "\""; "\\"; "\n"; "\t"; "\r"; "\000"; "\031"; "\127" ]);
        (1, oneofl [ "é"; "→"; "😀"; "seed:"; "mut:3@g1"; "xover:1+2@g0" ]);
        (1, map (fun c -> String.make 1 (Char.chr c)) (int_bound 255));
      ]
  in
  map (String.concat "") (list_size (int_bound 12) piece)

(* A corpus line's ["sig"]: any five ints, extremes included. *)
let stamp_gen =
  let open QCheck.Gen in
  list_repeat 5
    (frequency [ (3, int); (1, oneofl [ 0; 1; -1; max_int; min_int ]) ])

let json_ints l = Obs.Json.List (List.map (fun v -> Obs.Json.Int v) l)

(* [Fleet.corpus_line] with the stamp [[th; hop; verdict; depth; cfg]]. *)
let print_corpus_line buf ~id ~origin stamp c =
  match stamp with
  | [ terminal_hash; hop_mask; verdict_class; depth_bucket; cfg ] ->
      Msgpass.Fleet.corpus_line buf ~id ~origin ~cfg
        ~signature:
          { Msgpass.Fleet.terminal_hash; hop_mask; verdict_class; depth_bucket }
        c
  | _ -> invalid_arg "print_corpus_line"

(* [edit line i j ints] of a printed corpus line whose ["sig"] key starts
   at [i] and whose sig array of [ints] ends at [j]; the line unchanged
   when it has no sig. *)
let with_sig edit line =
  let key = "\"sig\":[" in
  let k = String.length key in
  let rec find i =
    if i + k > String.length line then line
    else if String.sub line i k = key then
      let j = String.index_from line i ']' in
      String.sub line (i + k) (j - i - k)
      |> String.split_on_char ',' |> List.map int_of_string |> edit line i j
    else find (i + 1)
  in
  find 0

(* A printed corpus line as printed before lines carried ["sig"]. *)
let strip_sig =
  with_sig (fun line i j _ ->
      let rest = String.length line - j - 2 in
      String.sub line 0 i ^ String.sub line (j + 2) rest)

(* A printed corpus line with its sig ints replaced by [f] of them. *)
let map_sig f =
  with_sig (fun line i j ints ->
      let ints = String.concat "," (List.map string_of_int (f ints)) in
      String.sub line 0 (i + 6) ^ "[" ^ ints ^ "]"
      ^ String.sub line (j + 1) (String.length line - j - 1))

let prop_corpus_line_matches_json_tree =
  let gen =
    QCheck.Gen.quad QCheck.Gen.nat origin_gen stamp_gen
      (fault_plan_gen_over (QCheck.Gen.int_bound 255))
  in
  QCheck.Test.make ~name:"corpus line writer matches the JSON tree" ~count:300
    (QCheck.make
       ~print:(fun (id, origin, stamp, plan) ->
         Format.asprintf "%d %S [%s] %a" id origin
           (String.concat "," (List.map string_of_int stamp))
           Msgpass.Faults.pp_plan plan)
       gen)
    (fun (id, origin, stamp, plan) ->
      let c = Msgpass.Faults.compile ~n:256 plan in
      let buf = Buffer.create 64 in
      print_corpus_line buf ~id ~origin stamp c;
      Buffer.contents buf
      = Obs.Json.to_string
          (Obs.Json.Obj
             [
               ("id", Obs.Json.Int id);
               ("origin", Obs.Json.Str origin);
               ("sig", json_ints stamp);
               ( "plan",
                 Msgpass.Faults.plan_to_json (Msgpass.Faults.decompile c) );
             ]))

(* pp_plan's line breaking is part of the CLI output ([chaos --plan]):
   breaks fall only at the "; " separators, never inside an action. *)
let test_pp_plan_golden () =
  let open Msgpass.Faults in
  let plan =
    List.init 40 (fun i ->
        let ch = { src = i mod 4; dst = i * 7 mod 13 } in
        match i mod 9 with
        | 0 | 1 | 2 -> Deliver ch
        | 3 -> Drop ch
        | 4 -> Duplicate { src = 250 + i; dst = 3 }
        | 5 -> Defer ch
        | 6 -> Crash (i * 10)
        | 7 -> Enter i
        | _ -> Leave (i + 1))
  in
  Alcotest.(check string) "pp_plan at the default margin"
    "deliver 0>0; deliver 1>7; deliver 2>1; drop 3>8; dup 254>3; defer 1>9;\n\
     crash 60; enter 7; leave 9; deliver 1>11; deliver 2>5; deliver 3>12;\n\
     drop 0>6; dup 263>3; defer 2>7; crash 150; enter 16; leave 18; deliver 2>9;\n\
     deliver 3>3; deliver 0>10; drop 1>4; dup 272>3; defer 3>5; crash 240;\n\
     enter 25; leave 27; deliver 3>7; deliver 0>1; deliver 1>8; drop 2>2;\n\
     dup 281>3; defer 0>3; crash 330; enter 34; leave 36; deliver 0>5;\n\
     deliver 1>12; deliver 2>6; drop 3>0"
    (Format.asprintf "%a" pp_plan plan)

(* ----- pooled Net vs the Netref oracle ----- *)

(* The arena-backed Net must stay observationally identical to the
   Queue-backed Netref (test/oracle) under any scripted fault sequence, churn
   included. Both networks run the same bounded gossip protocol and log
   every handler invocation; after every plan action the two must agree
   on the action's effect, the delivery log, the deliverable set, the
   membership view and the hop mask — and a final lexicographic drain
   must leave both quiescent with identical logs. Slots 7..9 start
   absent so random Enter actions are effective. Each case runs two
   plans through one Net, [reset] between them as the chaos pool does,
   each against a fresh oracle. The first stops undrained, so the reset
   meets queued traffic, grown rings and dead slots; the second plan then
   pins what reset restores — rings, non-empty-channel rows, membership
   and the hop clock. *)
let prop_net_matches_netref =
  let module N = Msgpass.Net in
  let module R = Oracle.Netref in
  let module F = Msgpass.Faults in
  let n = 10 in
  let fanout = 3 * n in
  QCheck.Test.make
    ~name:"pooled Net matches the Netref oracle on random fault plans"
    ~count:120
    (QCheck.pair fault_plan_arbitrary fault_plan_arbitrary)
    (fun (plan, plan2) ->
      let log_n = ref [] and log_r = ref [] in
      let nodes log pid : int R.node =
        {
          R.on_start = (fun () -> [ ((pid + 1) mod n, pid) ]);
          on_message =
            (fun ~from m ->
              log := (pid, from, m) :: !log;
              if m < fanout then [ ((pid + 1) mod n, m + n) ] else []);
          on_leave = (fun () -> [ ((pid + 2) mod n, 1000 + pid) ]);
        }
      in
      let present pid = pid < 7 in
      let net = N.create ~present ~n ~nodes:(R.lift (nodes log_n)) () in
      let pids = List.init n Fun.id in
      let buf = Array.make (n * n) 0 in
      let deliverable () =
        List.init (N.deliverable_into net buf) (fun i ->
            (buf.(i) / n, buf.(i) mod n))
      in
      let matches ~drain oracle plan =
        let same_state () =
          !log_n = !log_r
          && deliverable () = R.deliverable oracle
          && N.hop_mask net = R.hop_mask oracle
          && List.for_all
               (fun pid ->
                 N.alive net pid = R.alive oracle pid
                 && N.is_present net pid = R.is_present oracle pid)
               pids
          && List.for_all
               (fun src ->
                 List.for_all
                   (fun dst ->
                     N.pending net ~src ~dst = R.pending oracle ~src ~dst)
                   pids)
               pids
        in
        let apply = function
          | F.Deliver { F.src; dst } ->
              N.deliver net ~src ~dst = R.deliver oracle ~src ~dst
          | F.Drop { F.src; dst } ->
              N.drop net ~src ~dst = R.drop oracle ~src ~dst
          | F.Duplicate { F.src; dst } ->
              N.duplicate net ~src ~dst = R.duplicate oracle ~src ~dst
          | F.Defer { F.src; dst } ->
              N.defer net ~src ~dst = R.defer oracle ~src ~dst
          | F.Crash pid ->
              N.crash net pid;
              R.crash oracle pid;
              true
          | F.Enter pid -> N.enter net pid = R.enter oracle pid
          | F.Leave pid -> N.leave net pid = R.leave oracle pid
        in
        let scripted =
          same_state () && List.for_all (fun a -> apply a && same_state ()) plan
        in
        let drained =
          (not drain)
          ||
          let budget = ref 10_000 in
          let ok = ref true in
          let continue = ref true in
          while !continue && !ok && !budget > 0 do
            match R.deliverable oracle with
            | [] -> continue := false
            | (src, dst) :: _ ->
                decr budget;
                ok :=
                  N.deliver net ~src ~dst = R.deliver oracle ~src ~dst
                  && same_state ()
          done;
          !ok && !budget > 0
          && deliverable () = [] && R.deliverable oracle = []
        in
        scripted && drained
      in
      let oracle () = R.create ~present ~n ~nodes:(nodes log_r) () in
      matches ~drain:false (oracle ()) plan
      &&
      (log_n := [];
       log_r := [];
       N.reset ~present net;
       matches ~drain:true (oracle ()) plan2))

(* ----- the random fault driver vs its branchy reference ----- *)

(* [Faults.run_random] over a [Net] must record the same plan and the
   same [hop_mask] as [Oracle.Faultref], the driver as it was before its
   per-event path went branch-free, over the persistent [Netref]. Both
   networks run one bounded gossip protocol: every slot starts by
   sending [ttl] to two slots, a message [m > 0] is forwarded as [m - 1]
   to one slot (two when [m] is a multiple of 3), and a departing slot
   says goodbye. Cases are the four chaos presets' profiles, with the
   crash and churn schedules a seeded chaos run rolled, or random
   profiles over up to 61 slots. *)
type driver_case = {
  dc_label : string;
  dc_n : int;
  dc_members : int;  (** slots [0 .. dc_members - 1] present at start *)
  dc_profile : Msgpass.Faults.profile;
  dc_seed : int;
  dc_max_events : int;
  dc_ttl : int;
}

let gossip ~n ~ttl pid : int Oracle.Netref.node =
  {
    Oracle.Netref.on_start =
      (fun () -> [ ((pid + 1) mod n, ttl); (((pid * 7) + 3) mod n, ttl) ]);
    on_message =
      (fun ~from m ->
        if m = 0 then []
        else
          ((pid + m) mod n, m - 1)
          :: (if m mod 3 = 0 then [ ((from + (2 * pid) + 1) mod n, m - 1) ]
              else []));
    on_leave = (fun () -> [ ((pid + 2) mod n, 1) ]);
  }

(* The plan and hop mask each driver records, and the reference's count
   of all-frozen events served by decree. *)
let run_both c =
  let module F = Msgpass.Faults in
  let module R = Oracle.Netref in
  let present pid = pid < c.dc_members in
  let nodes = gossip ~n:c.dc_n ~ttl:c.dc_ttl in
  let net = Msgpass.Net.create ~present ~n:c.dc_n ~nodes:(R.lift nodes) () in
  let ft = F.wrap net in
  F.run_random ~rng:(Bits.Rng.make c.dc_seed) ~profile:c.dc_profile
    ~max_events:c.dc_max_events ft;
  let ref_net = R.create ~present ~n:c.dc_n ~nodes () in
  let r = Oracle.Faultref.wrap ref_net in
  Oracle.Faultref.run_random ~rng:(Bits.Rng.make c.dc_seed)
    ~profile:c.dc_profile ~max_events:c.dc_max_events r;
  ( (F.decompile (F.compiled_plan ft), Msgpass.Net.hop_mask net),
    (Oracle.Faultref.plan r, R.hop_mask ref_net),
    Oracle.Faultref.decrees r )

(* A preset's universe, seed group, profile and event budget, with crash
   and churn schedules drawn the way its chaos runs roll them: at most
   [min crashes t] crashes of any pid; for a dynamic preset, entries of
   unseeded slots and departures of seed members other than the writer,
   all within the first quarter of the event budget. *)
let preset_case_gen =
  let open QCheck.Gen in
  let module C = Msgpass.Chaos in
  let* label, config =
    oneofl
      [
        ("sound", C.sound ()); ("churn", C.churn ()); ("frontier", C.frontier ());
        ("churn_frontier", C.churn_frontier ());
      ]
  in
  let n = config.C.n in
  let members =
    match config.C.membership with Some d -> d.C.seed_members | None -> n
  in
  let at = int_bound (max 1 (config.C.max_events / 4) - 1) in
  let schedule k pid = list_size (int_bound k) (pair pid at) in
  let* crash_at =
    schedule (min config.C.crashes config.C.t) (int_bound (n - 1))
  in
  let* enter_at, leave_at =
    if members = n then return ([], [])
    else
      pair
        (schedule (n - members) (int_range members (n - 1)))
        (schedule (members - 1) (int_range 1 (members - 1)))
  in
  let* seed = int_bound 100_000 in
  let* ttl = int_range 1 12 in
  let p = config.C.profile in
  return
    {
      dc_label = Printf.sprintf "%s seed %d" label seed;
      dc_n = n;
      dc_members = members;
      dc_profile =
        {
          p with
          crash_at = p.crash_at @ crash_at;
          enter_at = p.enter_at @ enter_at;
          leave_at = p.leave_at @ leave_at;
        };
      dc_seed = seed;
      dc_max_events = config.C.max_events;
      dc_ttl = ttl;
    }

let random_case_gen =
  let open QCheck.Gen in
  let* n = frequency [ (5, int_range 1 8); (1, int_range 9 61) ] in
  let* members = int_range 1 n in
  let prob hi = oneof [ return 0.; float_bound_inclusive hi ] in
  let* drop = prob 0.3 in
  let* duplicate = prob 0.3 in
  let* defer = prob 0.4 in
  let* delay = prob 0.9 in
  let* delay_span = int_range 1 40 in
  let* max_channel_drops = oneof [ return max_int; int_bound 4 ] in
  let schedule = list_size (int_bound 3) (pair (int_bound (n - 1)) (int_bound 300)) in
  let* crash_at = schedule in
  let* enter_at = schedule in
  let* leave_at = schedule in
  let* seed = int_bound 1_000_000 in
  let* max_events = int_range 1 3000 in
  let* ttl = int_range 1 12 in
  return
    {
      dc_label = "random";
      dc_n = n;
      dc_members = members;
      dc_profile =
        {
          Msgpass.Faults.drop;
          duplicate;
          defer;
          delay;
          delay_span;
          max_channel_drops;
          crash_at;
          enter_at;
          leave_at;
        };
      dc_seed = seed;
      dc_max_events = max_events;
      dc_ttl = ttl;
    }

let print_driver_case c =
  let p = c.dc_profile in
  let sched l =
    String.concat ";" (List.map (fun (pid, at) -> Printf.sprintf "%d@%d" pid at) l)
  in
  Printf.sprintf
    "%s: n=%d members=%d ttl=%d max_events=%d seed=%d drop=%g dup=%g \
     defer=%g delay=%g span=%d max_drops=%d crash=[%s] enter=[%s] leave=[%s]"
    c.dc_label c.dc_n c.dc_members c.dc_ttl c.dc_max_events c.dc_seed p.drop
    p.duplicate p.defer p.delay p.delay_span p.max_channel_drops
    (sched p.crash_at) (sched p.enter_at) (sched p.leave_at)

let prop_random_driver_matches_reference =
  QCheck.Test.make ~name:"random fault driver = branchy reference driver"
    ~count:500
    (QCheck.make ~print:print_driver_case
       (QCheck.Gen.frequency [ (1, preset_case_gen); (3, random_case_gen) ]))
    (fun c ->
      let got, want, _ = run_both c in
      got = want)

(* Heavy delay on two slots freezes every candidate channel at once, so
   the reference serves all of them by decree; the driver must make the
   same picks there too. *)
let test_random_driver_thaw_by_decree () =
  let c =
    {
      dc_label = "decree";
      dc_n = 2;
      dc_members = 2;
      dc_profile =
        { Msgpass.Faults.reliable with delay = 0.9; delay_span = 40 };
      dc_seed = 5;
      dc_max_events = 3000;
      dc_ttl = 12;
    }
  in
  let (plan, mask), (ref_plan, ref_mask), decrees = run_both c in
  Alcotest.(check bool) "the all-frozen branch is reached" true (decrees > 0);
  Alcotest.(check bool) "same plan" true (plan = ref_plan);
  Alcotest.(check int) "same hop mask" ref_mask mask

(* A delivery made after [h] intermediate deliveries is [h] hops old and
   must set exactly the bit of the bucket the search over
   [Net.hop_bounds] gives ([Oracle.Netref.hop_bucket]). Slot 1 pings
   itself — every ping is 0 hops old, bucket 0 — while slot 0's message
   to slot 2 waits. The Netref differential above compares [hop_mask]
   only for the small hop counts its plans reach; this walks every
   bucket edge, the table's end at 512 and one count far past it. *)
let test_hop_bucket_edges () =
  let module N = Msgpass.Net in
  let pow2 = List.init 10 (fun i -> 1 lsl i) in
  let nodes ~send pid =
    {
      N.on_start =
        (fun () ->
          if pid = 0 then send ~dst:2 () else if pid = 1 then send ~dst:1 ());
      on_message = (fun ~from:_ () -> if pid = 1 then send ~dst:1 ());
      on_leave = ignore;
    }
  in
  List.iter
    (fun h ->
      let net = N.create ~n:3 ~nodes () in
      for _ = 1 to h do
        ignore (N.deliver net ~src:1 ~dst:1 : bool)
      done;
      let before = N.hop_mask net in
      Alcotest.(check int)
        (Printf.sprintf "%d pings hit bucket 0 only" h)
        (if h = 0 then 0 else 1) before;
      Alcotest.(check bool) "the waiting message is delivered" true
        (N.deliver net ~src:0 ~dst:2);
      Alcotest.(check int)
        (Printf.sprintf "hop_mask after a %d-hop delivery" h)
        (before lor (1 lsl Oracle.Netref.hop_bucket h))
        (N.hop_mask net))
    ([ 0; 1; 2; 3 ] @ pow2 @ List.map succ pow2 @ [ 100_000 ])

let test_plan_codec_rejects_garbage () =
  List.iter
    (fun text ->
      match plan_of_text text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" text)
    [
      {|["deliver"]|}; {|["deliver 0-1"]|}; {|["crash x"]|};
      {|["teleport 0>1"]|}; {|["deliver 0>1", "zap"]|}; {|["enter"]|};
      {|["leave 1>2"]|}; {|"deliver 0>1"|}; {|["crash 1", 2]|};
    ]

(* A rejected plan names the offending action by its index, so a
   hand-edited corpus line fails with something greppable instead of a
   bare "parse error". *)
let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_plan_parse_errors_are_positional () =
  List.iter
    (fun (text, fragments) ->
      match plan_of_text text with
      | Ok _ -> Alcotest.failf "parsed %S" text
      | Error e ->
          List.iter
            (fun frag ->
              if not (contains e frag) then
                Alcotest.failf "error for %S lacks %S: %s" text frag e)
            fragments)
    [
      ({|["deliver 0>1", "zap 3"]|}, [ "element 1"; "zap" ]);
      ({|["deliver 0>1", "deliver 2>3", "crash x"]|}, [ "element 2"; "x" ]);
      ({|["enter 0", "leave y"]|}, [ "element 1"; "leave"; "y" ]);
      ({|["deliver 9"]|}, [ "element 0"; "src>dst" ]);
      ({|["crash 1", 2]|}, [ "element 1"; "not a string" ]);
    ]

(* Hostile plan text: byte-edit a valid corpus rendering of a plan
   (replace, insert or delete, biased towards the grammar's own bytes)
   and parse it. The general loader path never raises, every [Error]
   names a byte offset or a plan element, every [Ok] re-prints and
   re-parses to itself, and the corpus fast path ([scan_compiled_json])
   accepts only text the general path reads as the same plan. *)
let prop_plan_parser_survives_byte_edits =
  let module Fa = Msgpass.Faults in
  let open QCheck.Gen in
  let operand = int_range 0 12 in
  let channel = map2 (fun src dst -> { Fa.src; dst }) operand operand in
  let action =
    oneof
      [
        map (fun ch -> Fa.Deliver ch) channel;
        map (fun ch -> Fa.Drop ch) channel;
        map (fun ch -> Fa.Duplicate ch) channel;
        map (fun ch -> Fa.Defer ch) channel;
        map (fun p -> Fa.Crash p) operand;
        map (fun p -> Fa.Enter p) operand;
        map (fun p -> Fa.Leave p) operand;
      ]
  in
  let chars s = List.of_seq (String.to_seq s) in
  let byte =
    frequency
      [
        (3, oneofl (chars "\",[]> \n\t-+_0x123456789"));
        (2, oneofl (chars "delivrupfcash"));
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let text_gen =
    list_size (int_range 1 30) action >>= fun plan ->
    let text = Obs.Json.to_string (Fa.plan_to_json plan) in
    list_size (int_range 1 4)
      (triple (int_range 0 2) (int_range 0 max_int) byte)
    >|= fun edits ->
    List.fold_left
      (fun t (kind, at, b) ->
        let len = String.length t in
        let at = if len = 0 then 0 else at mod len in
        let before = String.sub t 0 at in
        match kind with
        | 0 when len > 0 -> String.mapi (fun i c -> if i = at then b else c) t
        | 1 -> before ^ String.make 1 b ^ String.sub t at (len - at)
        | _ when len > 0 -> before ^ String.sub t (at + 1) (len - at - 1)
        | _ -> t)
      text edits
  in
  QCheck.Test.make ~name:"plan parser survives byte edits" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") text_gen)
    (fun text ->
      let fast = Fa.scan_compiled_json ~n:13 text 0 (String.length text) in
      match plan_of_text text with
      | exception exn ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string exn)
      | Error e ->
          let pos fmt =
            Scanf.sscanf_opt e fmt (fun p -> p >= 0 && p <= String.length text)
          in
          fast = None
          && (pos "at %d: " = Some true || pos "plan element %d" = Some true
             || e = "plan is not a JSON array")
          || QCheck.Test.fail_reportf "fast path read it, or no position: %s" e
      | Ok plan ->
          plan_of_text (Obs.Json.to_string (Fa.plan_to_json plan)) = Ok plan
          && Option.fold ~none:true ~some:(fun c -> Fa.decompile c = plan) fast
          || QCheck.Test.fail_reportf "re-printed plan does not re-parse")

(* The corpus plan printer writes, byte for byte, what the reference
   ([Oracle.Codecref], one [Buffer] call per token) appends, after
   whatever the buffer already holds: every kind, operands 0..255. *)
let prop_compiled_printer_matches_reference =
  let gen =
    QCheck.Gen.pair origin_gen (fault_plan_gen_over (QCheck.Gen.int_bound 255))
  in
  QCheck.Test.make ~name:"plan printer matches its reference" ~count:500
    (QCheck.make
       ~print:(fun (prefix, plan) ->
         Format.asprintf "%S %a" prefix Msgpass.Faults.pp_plan plan)
       gen)
    (fun (prefix, plan) ->
      let c = Msgpass.Faults.compile ~n:256 plan in
      let print add =
        let buf = Buffer.create 16 in
        Buffer.add_string buf prefix;
        add buf c;
        Buffer.contents buf
      in
      print Msgpass.Faults.add_compiled_json
      = print Oracle.Codecref.add_compiled_json)

(* Lines of real runs, static and churn: what a campaign appends. *)
let real_corpus_lines =
  lazy
    (List.concat_map
       (fun config ->
         List.init 6 (fun seed ->
             let o = Msgpass.Chaos.run_random ~seed config in
             let buf = Buffer.create 1024 in
             Msgpass.Fleet.corpus_line buf ~id:seed ~origin:"seed:1"
               ~signature:(Msgpass.Fleet.signature_of o) ~cfg:seed o.plan;
             Buffer.contents buf))
       [ Msgpass.Chaos.frontier (); Msgpass.Chaos.churn_frontier () ])

(* The corpus plan scanner reads exactly what the reference reads, as the
   same plan, on any range [[i, j)] of any text. The texts are printed
   plans with operands up to 300 and real corpus lines, byte-edited
   (biased towards the grammar's bytes) and embedded in longer text.
   Universes above 256 are where a scanner that checked only [< n] would
   fold operand 256 into another field. *)
let prop_compiled_scanner_matches_reference =
  let module Fa = Msgpass.Faults in
  let open QCheck.Gen in
  let chars s = List.of_seq (String.to_seq s) in
  let byte =
    frequency
      [
        (3, oneofl (chars "\",[]>{} 0123456789"));
        (2, oneofl (chars "delivrupfcashnt"));
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let printed =
    fault_plan_gen_over (int_bound 300) >|= fun plan ->
    Obs.Json.to_string (Fa.plan_to_json plan)
  in
  let real =
    int_bound 1000 >|= fun k ->
    let lines = Lazy.force real_corpus_lines in
    List.nth lines (k mod List.length lines)
  in
  (* Replace, insert or delete a byte, or insert a run of up to 24
     digits: long enough to overflow an operand that has no cut-off. *)
  let edit t (kind, at, b) =
    let len = String.length t in
    let at = if len = 0 then 0 else at mod len in
    let insert u = String.sub t 0 at ^ u ^ String.sub t at (len - at) in
    match kind with
    | 0 when len > 0 -> String.mapi (fun i c -> if i = at then b else c) t
    | 1 -> insert (String.make 1 b)
    | 2 -> insert (String.make (1 + (Char.code b mod 24)) '9')
    | _ when len > 0 -> String.sub t 0 at ^ String.sub t (at + 1) (len - at - 1)
    | _ -> t
  in
  let case =
    oneofl [ 4; 13; 61; 256; 300 ] >>= fun n ->
    frequency [ (1, printed); (1, real) ] >>= fun text ->
    list_size (int_bound 4) (triple (int_range 0 3) (int_range 0 max_int) byte)
    >>= fun edits ->
    let text = List.fold_left edit text edits in
    let pad = string_size ~gen:byte (int_bound 4) in
    pair pad pad
    >>= fun (before, after) ->
    let s = before ^ text ^ after in
    (* The plan range of a corpus line, else the embedded text. *)
    let i, j =
      let key = "\"plan\":" in
      let rec find p =
        if p + String.length key > String.length s then None
        else if String.sub s p (String.length key) = key then Some p
        else find (p + 1)
      in
      match find 0 with
      | Some p ->
          (p + String.length key, String.length s - 1 - String.length after)
      | None ->
          (String.length before, String.length before + String.length text)
    in
    frequency
      [
        (3, pure (i, j));
        (1, pair (int_bound (String.length s)) (int_bound (String.length s)));
      ]
    >|= fun (i, j) -> (n, s, i, j)
  in
  QCheck.Test.make ~name:"plan scanner matches its reference" ~count:3000
    (QCheck.make
       ~print:(fun (n, s, i, j) -> Printf.sprintf "n=%d [%d, %d) of %S" n i j s)
       case)
    (fun (n, s, i, j) ->
      let read scan = Option.map Fa.decompile (scan ~n s i j) in
      read Fa.scan_compiled_json = read Oracle.Codecref.scan_compiled_json)

(* Mutation is a pure function of the rng stream: same corpus plan + same
   seed give byte-identical children. *)
let test_fleet_mutator_deterministic () =
  let module C = Msgpass.Chaos in
  let module Fa = Msgpass.Faults in
  let config = C.frontier () in
  let n = config.C.n in
  let base = (C.run_random ~seed:11 config).C.plan in
  let children seed =
    let rng = Bits.Rng.make seed in
    List.init 32 (fun _ -> Fa.decompile (Fa.mutate rng ~n base))
  in
  Alcotest.(check bool) "same seed: byte-identical children" true
    (children 5 = children 5);
  Alcotest.(check bool) "different seed: different children" true
    (children 5 <> children 6);
  let cross seed =
    let rng = Bits.Rng.make seed in
    let other = (C.run_random ~seed:12 config).C.plan in
    List.init 32 (fun _ -> Fa.decompile (Fa.crossover rng base other))
  in
  Alcotest.(check bool) "crossover deterministic too" true (cross 5 = cross 5)

(* The draw order of the mutation engine is part of every published
   fleet corpus: these children were recorded from the action-level
   mutator the opcode engine replaced, for fixed seeds and base plans —
   static grammar, churn grammar (an empty parent too) and crossover,
   empty parents included. *)
let test_mutation_draws_pinned () =
  let module Fa = Msgpass.Faults in
  let compile ~n text = Fa.compile ~n (Result.get_ok (plan_of_text text)) in
  let show c = String.concat "; " (List.map Fa.action_to_string (Fa.decompile c)) in
  let static_base =
    {|["deliver 0>1", "deliver 1>2", "drop 2>3", "crash 3", "dup 0>2",
      "defer 1>0", "deliver 3>1", "deliver 2>0"]|}
  and churn_base =
    {|["deliver 0>1", "enter 5", "deliver 1>2", "leave 2", "drop 2>3",
      "dup 4>0", "defer 1>6", "deliver 5>1"]|}
  in
  let rng = Bits.Rng.make 16 in
  let static = compile ~n:4 static_base in
  Alcotest.(check (list string)) "static mutants"
    [
      "deliver 0>1; deliver 1>2; drop 3>1; dup 0>2; defer 1>0; deliver 3>1; deliver 2>0; crash 3";
      "deliver 2>0; deliver 0>0; dup 2>0; crash 1; drop 2>2; defer 2>2";
      "deliver 0>1";
      "deliver 0>1; deliver 1>2; drop 2>3; dup 0>2; defer 1>0; defer 2>0; crash 3; deliver 2>0; deliver 3>1; deliver 2>0";
      "deliver 0>1; deliver 1>2; drop 2>3; crash 1; dup 0>2; defer 1>0; deliver 3>1";
      "deliver 0>1; deliver 1>2; drop 2>3; dup 0>2; dup 0>2; defer 1>0; deliver 3>1; deliver 2>0; deliver 1>2; drop 2>3; dup 0>2; dup 0>2; defer 1>0; crash 3";
      "deliver 0>1; deliver 1>2; deliver 1>0; deliver 2>0; defer 2>0; deliver 1>3; drop 2>3; crash 3; dup 0>2; defer 1>0; deliver 3>1; deliver 2>0; deliver 0>1";
      "crash 0; deliver 1>3; deliver 0>1; dup 0>2; defer 1>0; deliver 3>1; deliver 2>0";
      "deliver 0>1; deliver 1>2; drop 2>3; crash 3; crash 1; dup 0>2; deliver 0>1; deliver 1>2; drop 2>3; crash 3; crash 1; dup 0>2; defer 1>0; deliver 3>1; deliver 2>0";
      "deliver 0>1; deliver 2>2; deliver 2>0; drop 2>3; crash 3; dup 0>2; defer 1>0; deliver 3>1";
    ]
    (List.init 10 (fun _ -> show (Fa.mutate rng ~n:4 static)));
  let rng = Bits.Rng.make 16 in
  let churn = compile ~n:8 churn_base and empty = compile ~n:8 "[]" in
  Alcotest.(check (list string)) "churn mutants"
    [
      "deliver 0>1; enter 5; crash 1; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; enter 5; deliver 1>2; leave 2; deliver 0>6; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; enter 5; deliver 5>1";
      "deliver 7>4; defer 1>6; defer 1>6; deliver 5>1";
      "deliver 0>1; enter 5; deliver 1>2; leave 2; crash 1; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; enter 5; deliver 1>2; leave 2; drop 2>3; dup 4>0; defer 1>6";
      "deliver 0>1; enter 5; crash 1; deliver 1>2; leave 2; drop 2>3; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; dup 4>0; enter 5; deliver 1>2; leave 2; drop 2>3; crash 4; dup 4>0; defer 1>6; deliver 0>0; dup 4>1; deliver 5>1";
      "deliver 0>1; dup 4>0; defer 1>6; deliver 5>1; enter 5; deliver 1>2; leave 2; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; enter 5; deliver 1>2; leave 2; drop 2>3; dup 4>0; deliver 0>1; enter 5; deliver 1>2; leave 2; drop 2>3; dup 4>0; defer 1>6; deliver 5>1; defer 1>6; deliver 5>1";
      "leave 7; deliver 4>3; deliver 4>6; crash 5";
      "crash 4";
    ]
    (List.init 10 (fun _ -> show (Fa.mutate rng ~n:8 ~churn:true churn))
    @ List.init 2 (fun _ -> show (Fa.mutate rng ~n:8 ~churn:true empty)));
  let rng = Bits.Rng.make 16 in
  let static = compile ~n:8 static_base in
  Alcotest.(check (list string)) "crossovers"
    [
      "deliver 0>1; deliver 1>2; drop 2>3; crash 3; dup 0>2; defer 1>6; deliver 5>1";
      "deliver 0>1; deliver 1>2; drop 2>3; crash 3; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; deliver 1>2; leave 2; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; deliver 1>2; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; deliver 1>2; drop 2>3";
      "deliver 0>1; enter 5; deliver 1>2; leave 2; drop 2>3; dup 4>0; defer 1>6; deliver 5>1";
      "deliver 0>1; deliver 1>2; drop 2>3; crash 3; dup 0>2; defer 1>0; deliver 3>1; deliver 2>0";
    ]
    (List.init 6 (fun _ -> show (Fa.crossover rng static churn))
    @ [ show (Fa.crossover rng empty churn); show (Fa.crossover rng static empty) ])

(* Every mutant stays well-formed: endpoints are drawn in [0, n), and
   ineffective actions are skipped, so replay never raises — however the
   splicing mangled the plan. [run_plan] re-checks every operand. *)
let prop_fleet_mutants_replay =
  let module C = Msgpass.Chaos in
  let module Fa = Msgpass.Faults in
  let config = C.frontier () in
  QCheck.Test.make ~name:"mutants replay without Invalid_argument" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Bits.Rng.make seed in
      let base = (C.run_random ~seed:(seed land 31) config).C.plan in
      let m = Fa.mutate rng ~n:config.C.n base in
      let x = Fa.crossover rng m base in
      ignore (run_plan config (Fa.decompile m));
      ignore (run_plan config (Fa.decompile x));
      true)

(* Fleet reports are a pure function of the seed at any pool width: job
   planning, coverage, corpus growth and shrinking all happen on the
   calling domain in batch order. *)
(* A fleet validates its configuration as a chaos campaign does: one
   [Chaos.validate] rejects raises [Invalid_argument] naming the field
   before any run, instead of dying mid-run or running a vacuous fleet. *)
let test_fleet_refuses field config () =
  match Msgpass.Fleet.campaign ~generations:1 ~batch:2 ~seed:1 config with
  | _ -> Alcotest.failf "Fleet.campaign ran with a bad %s" field
  | exception Invalid_argument e ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" e field)
        true
        (String.starts_with ~prefix:"Fleet.campaign: " e && contains e field)

let test_fleet_jobs_invariant () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let report jobs =
    Format.asprintf "%a" F.pp_report
      (F.campaign ~generations:12 ~batch:8 ~jobs ~seed:9 (C.frontier ()))
  in
  let seq = report 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d renders identically" jobs)
        seq (report jobs))
    [ 2; 4 ]

let corpus_path dir = Filename.concat dir "corpus.jsonl"
let read_file f = In_channel.with_open_bin f In_channel.input_all
let write_file f s = Out_channel.with_open_bin f (fun oc -> output_string oc s)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* End to end on the frontier configuration: the fleet rediscovers the
   known stale-read violation class exactly once (every later find
   deduplicates into it), the witness replays bit-for-bit from its file,
   the corpus round-trips through its JSONL, and a second fleet resumed
   over the same corpus does not republish the class. *)
let test_fleet_witness_dedup_and_replay () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let config = C.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-test"
  in
  rm_rf dir;
  let r = F.campaign ~generations:60 ~batch:16 ~seed:9 ~corpus_dir:dir config in
  Alcotest.(check bool) "found violating runs" true (r.F.violations > 0);
  Alcotest.(check int) "exactly one witness class" 1
    (List.length r.F.witnesses);
  let w = List.hd r.F.witnesses in
  Alcotest.(check int) "every later find deduplicated" (r.F.violations - 1)
    w.F.duplicates;
  Alcotest.(check bool) "witness plan still fails" true
    (C.failed (run_plan config w.F.plan));
  (match F.replay_file (Option.get w.F.file) with
  | Error e -> Alcotest.fail e
  | Ok rep ->
      Alcotest.(check bool) "witness file replays bit-for-bit" true
        rep.F.bit_for_bit);
  (match F.load_corpus dir with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check int) "corpus JSONL round-trips every entry"
        r.F.corpus_size (List.length entries));
  let r2 =
    F.campaign ~generations:10 ~batch:8 ~seed:77 ~corpus_dir:dir config
  in
  Alcotest.(check int) "resumed fleet continues corpus ids"
    (r.F.corpus_size + r2.F.corpus_added)
    r2.F.corpus_size;
  Alcotest.(check int) "resumed fleet does not republish the class" 0
    (List.length r2.F.witnesses);
  rm_rf dir

(* Dead-mutator guard: a 150-generation frontier fleet must credit new
   coverage signals to mutated or crossed-over corpus plans, and some of
   them to mutation alone: a corpus entry of origin [mut:P@gG] whose plan
   differs from its parent P's. Replaying a parent unchanged can still
   reach a new terminal state, and crossovers keep [mutant_signals] up,
   so neither notices when [Faults.mutate] stops mutating. *)
let test_fleet_mutator_alive () =
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-mutator"
  in
  rm_rf dir;
  let r =
    F.campaign ~generations:150 ~batch:16 ~seed:9 ~corpus_dir:dir
      (Msgpass.Chaos.frontier ())
  in
  let entries =
    match F.load_corpus dir with Ok e -> e | Error e -> Alcotest.fail e
  in
  rm_rf dir;
  Alcotest.(check bool) "mutants find new coverage" true
    (r.F.mutant_signals > 0);
  let plan_of id =
    (List.find (fun (e : F.entry) -> e.F.id = id) entries).F.plan
  in
  let mutated (e : F.entry) =
    match Scanf.sscanf_opt e.F.origin "mut:%d@g%_d%!" Fun.id with
    | Some parent -> e.F.plan <> plan_of parent
    | None -> false
  in
  Alcotest.(check bool) "a mutated plan finds new coverage" true
    (List.exists mutated entries)

(* Run-cache liveness: a campaign resumed over a corpus another campaign
   filled pre-fills the cache with every corpus plan's key, whether it
   reads the plan's stored signature or re-executes it, so its mutants
   must probe the cache and get at least one answer. A fresh in-memory
   campaign legitimately records no hit. *)
let test_fleet_cache_alive () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-cache"
  in
  rm_rf dir;
  ignore
    (F.campaign ~generations:60 ~batch:16 ~seed:9 ~corpus_dir:dir config
      : F.report);
  let r = F.campaign ~generations:20 ~batch:16 ~seed:11 ~corpus_dir:dir config in
  rm_rf dir;
  Alcotest.(check bool) "the resume probes the cache" true
    (r.F.cache_lookups > 0);
  Alcotest.(check bool) "the resume hits the cache" true (r.F.cache_hits > 0)

let corpus_lines dir =
  String.split_on_char '\n' (read_file (corpus_path dir))
  |> List.filter (fun l -> l <> "")

let json_exn line =
  match Obs.Json.of_string line with Ok j -> j | Error e -> Alcotest.fail e

let stored_sig line =
  match Obs.Json.member "sig" (json_exn line) with
  | Some (Obs.Json.List l) -> List.filter_map Obs.Json.to_int l
  | _ -> Alcotest.failf "no sig: %s" line

(* A run is a pure function of its plan and configuration, which is what
   lets a resume read a signature instead of re-running its plan: every
   "sig" a campaign stores is the signature of its line's plan re-executed
   under the campaign's validated configuration — fresh runs (run under
   the swarm-rolled profile and crash budget), mutants, crossovers and
   shrunk witnesses alike — followed by one configuration hash per
   campaign, different for each preset. *)
let test_fleet_signatures_replay () =
  let module C = Msgpass.Chaos in
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-sig"
  in
  let kinds = Hashtbl.create 4 in
  let check_preset (name, config, generations) =
    rm_rf dir;
    ignore (F.campaign ~generations ~seed:3 ~corpus_dir:dir config : F.report);
    let lines = corpus_lines dir in
    rm_rf dir;
    let config =
      match C.validate config with Ok (c, _) -> c | Error e -> Alcotest.fail e
    in
    let cfgs =
      List.mapi
        (fun k line ->
          let j = json_exn line in
          let plan =
            match Obs.Json.member "plan" j with
            | Some pj -> Result.get_ok (Msgpass.Faults.plan_of_json pj)
            | None -> Alcotest.failf "%s line %d: no plan" name (k + 1)
          in
          let origin = Option.get (Obs.Json.member_str "origin" j) in
          Hashtbl.replace kinds (List.hd (String.split_on_char ':' origin)) ();
          let c = Msgpass.Faults.compile ~n:config.C.n plan in
          let s = F.signature_of (C.run_compiled config c) in
          match stored_sig line with
          | [ th; hop; verdict; depth; cfg ] ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s line %d (%s) replays its sig" name (k + 1)
                   origin)
                [ s.F.terminal_hash; s.F.hop_mask; s.F.verdict_class;
                  s.F.depth_bucket ]
                [ th; hop; verdict; depth ];
              cfg
          | _ -> Alcotest.failf "%s line %d: sig is not five ints" name (k + 1))
        lines
    in
    match List.sort_uniq compare cfgs with
    | [ cfg ] -> cfg
    | _ -> Alcotest.failf "%s: not one configuration hash" name
  in
  let cfgs =
    List.map check_preset
      [
        ("frontier", C.frontier (), 40);
        ("sound", C.sound (), 20);
        ("churn", C.churn (), 10);
        ("churn-frontier", C.churn_frontier (), 10);
      ]
  in
  Alcotest.(check int) "one configuration hash per preset" 4
    (List.length (List.sort_uniq compare cfgs));
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " entries checked") true
        (Hashtbl.mem kinds kind))
    [ "seed"; "mut"; "xover"; "witness" ]

(* The seed-9 corpus resumed three ways gives one report: with a sig on
   every line, with none (a corpus written before lines carried one), and
   with half the lines stamped under another configuration. Only the
   work differs: a line whose sig the resume cannot use is re-executed,
   which the network's send counter shows, and a resume that may read
   every sig re-executes nothing. *)
let test_fleet_resume_reads_signatures () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-resume"
  in
  rm_rf dir;
  ignore (F.campaign ~generations:60 ~seed:9 ~corpus_dir:dir config : F.report);
  let lines = corpus_lines dir in
  let witnesses =
    Sys.readdir dir |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"witness-")
    |> List.map (fun f -> (f, read_file (Filename.concat dir f)))
  in
  let sends = Obs.Metrics.counter "net.sends" in
  let resume ~generations lines =
    rm_rf dir;
    Sys.mkdir dir 0o755;
    write_file (corpus_path dir) (String.concat "\n" lines ^ "\n");
    List.iter (fun (f, t) -> write_file (Filename.concat dir f) t) witnesses;
    let hot = !Obs.Metrics.hot in
    Obs.Metrics.hot := true;
    let before = Obs.Metrics.counter_value sends in
    let r =
      Fun.protect ~finally:(fun () -> Obs.Metrics.hot := hot) @@ fun () ->
      F.campaign ~generations ~seed:11 ~corpus_dir:dir config
    in
    let sent = Obs.Metrics.counter_value sends - before in
    (Format.asprintf "%a" F.pp_report r, sent)
  in
  let stamped, sent = resume ~generations:20 lines in
  let bare, sent_bare = resume ~generations:20 (List.map strip_sig lines) in
  let half, sent_half =
    resume ~generations:20
      (List.mapi
         (fun k l ->
           if k mod 2 = 1 then l
           else
             map_sig
               (function
                 | [ th; hop; v; depth; cfg ] -> [ th; hop; v; depth; cfg + 1 ]
                 | ints -> ints)
               l)
         lines)
  in
  let _, sent_none = resume ~generations:0 lines in
  rm_rf dir;
  Alcotest.(check string) "a corpus without sig resumes alike" stamped bare;
  Alcotest.(check string) "foreign stamps resume alike" stamped half;
  Alcotest.(check bool) "foreign stamps are re-executed" true
    (sent < sent_half && sent_half < sent_bare);
  Alcotest.(check int) "a stamped corpus is not re-executed" 0 sent_none

(* A lying sig steers coverage only. Every violating line of the seed-9
   corpus is stamped as a passing run of depth bucket 62: the resume folds
   the lie (its depth bucket reads 62), but its violations, witness
   classes and witnesses are those of the honest resume. One generation,
   so both resumes run the same jobs; no witness file is kept, so each
   resume publishes its classes. *)
let test_fleet_lying_signature () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-lie"
  in
  rm_rf dir;
  ignore (F.campaign ~generations:60 ~seed:9 ~corpus_dir:dir config : F.report);
  let lines = corpus_lines dir in
  let forge =
    map_sig (function
      | [ th; hop; 1; _; cfg ] -> [ th + 1; hop; 0; 62; cfg ]
      | ints -> ints)
  in
  let resume lines =
    rm_rf dir;
    Sys.mkdir dir 0o755;
    write_file (corpus_path dir) (String.concat "\n" lines ^ "\n");
    F.campaign ~generations:1 ~batch:256 ~seed:12 ~corpus_dir:dir config
  in
  let honest = resume lines in
  let forged = resume (List.map forge lines) in
  rm_rf dir;
  Alcotest.(check bool) "some line was forged" true
    (List.map forge lines <> lines);
  Alcotest.(check bool) "the resume finds violations" true
    (honest.F.violations > 0);
  Alcotest.(check int) "the lie is folded" 62 forged.F.max_depth_bucket;
  Alcotest.(check bool) "the honest resume is shallower" true
    (honest.F.max_depth_bucket < 62);
  Alcotest.(check int) "violations" honest.F.violations forged.F.violations;
  let shown (r : F.report) =
    List.map
      (fun (w : F.witness) ->
        Format.asprintf "%016x %s g%d: %a %d/%d/%d %s %d %d" w.F.class_key
          w.F.origin w.F.found_gen Msgpass.Faults.pp_plan w.F.plan
          w.F.deliveries w.F.events w.F.reg w.F.reason w.F.shrink_tests
          w.F.duplicates)
      r.F.witnesses
  in
  Alcotest.(check (list string)) "witnesses" (shown honest) (shown forged)

(* The run cache's counts, pinned with the rest of the report text: a
   seed-9 frontier campaign and a resume over its corpus (the fleet
   benchmark's batch shape), then a resume over a 60-generation corpus
   whose mutants reproduce a corpus plan once. *)
let test_fleet_reports_pinned () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-pin"
  in
  let text r = Format.asprintf "%a" F.pp_report r in
  rm_rf dir;
  let r = F.campaign ~generations:20 ~seed:9 ~corpus_dir:dir config in
  let r2 = F.campaign ~generations:7 ~seed:500_009 ~corpus_dir:dir config in
  rm_rf dir;
  ignore (F.campaign ~generations:60 ~seed:9 ~corpus_dir:dir config : F.report);
  let r3 = F.campaign ~generations:20 ~seed:11 ~corpus_dir:dir config in
  rm_rf dir;
  Alcotest.(check string) "seed 9, 20 generations"
    (String.concat "\n"
       [
         "fleet seed 9: 20 generation(s), 320 runs, 3 violating run(s)";
         "coverage: 217 distinct terminal states, hop-mask 0x1ff, \
          verdict-mask 0x3, depth<=2^9";
         "corpus: 218 plan(s) (218 added)";
         "cache: 0 hit(s) over 321 lookup(s)";
         "witnesses: 1 class(es)";
         "  class 11d375a62583849e (gen 3, via mut:32@g3): 24 deliveries, 26 \
          events, reg 0 — read by p2 over [3,6] returned 0, which no \
          interleaving of the writes consistent with real-time order can \
          produce";
         "  (755 shrink replays, 2 duplicate run(s) deduplicated; " ^ dir
         ^ "/witness-11d375a62583849e.json)";
       ])
    (text r);
  Alcotest.(check string) "resume at seed 500009, 7 generations"
    "fleet seed 500009: 7 generation(s), 112 runs, 1 violating run(s)\n\
     coverage: 284 distinct terminal states, hop-mask 0x1ff, verdict-mask \
     0x3, depth<=2^9\n\
     corpus: 284 plan(s) (66 added)\n\
     cache: 0 hit(s) over 330 lookup(s)\n\
     witnesses: 0 class(es)"
    (text r2);
  Alcotest.(check string) "resume at seed 11 over 60 generations"
    "fleet seed 11: 20 generation(s), 320 runs, 6 violating run(s)\n\
     coverage: 770 distinct terminal states, hop-mask 0x1ff, verdict-mask \
     0x3, depth<=2^9\n\
     corpus: 771 plan(s) (184 added)\n\
     cache: 1 hit(s) over 907 lookup(s)\n\
     witnesses: 0 class(es)"
    (text r3)

(* Two campaigns in one process: the second one's first-violation dump
   opens with its own fleet.campaign Begin and holds no event of the
   first, nor of an earlier parallel run. The first campaign has a
   corpus, so its dump lands
   beside it and not in the working directory; the second has none and
   dumps into the working directory. *)
let test_fleet_dump_scoped_to_campaign () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let name = "flight-nonlinearizable.jsonl" in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-fleet-dump"
  in
  let read_dump dump =
    let lines = In_channel.with_open_text dump In_channel.input_lines in
    Sys.remove dump;
    List.map
      (fun l ->
        match Obs.Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "dump line %S: %s" l e)
      lines
  in
  let check_opens_campaign ~seed = function
    | first :: _ ->
        Alcotest.(check (list (option string)))
          (Printf.sprintf "seed %d dump opens with its campaign Begin" seed)
          [ Some "fleet.campaign"; Some "B" ]
          [ Obs.Json.member_str "name" first; Obs.Json.member_str "ph" first ];
        Alcotest.(check (option int)) "Begin names the campaign's seed"
          (Some seed)
          (Option.bind (Obs.Json.member "args" first) (Obs.Json.member_int "seed"))
    | [] -> Alcotest.failf "seed %d: empty dump" seed
  in
  Sched.Par.run_units ~jobs:2 ~units:[| 0; 1 |]
    (fun _ -> Obs.Span.instant ~cat:"test" "before-campaigns")
    (fun _ () -> ());
  if Sys.file_exists name then Sys.remove name;
  rm_rf dir;
  let r1 = F.campaign ~generations:8 ~seed:9 ~corpus_dir:dir config in
  Alcotest.(check bool) "first campaign violates" true (r1.F.violations > 0);
  Alcotest.(check bool) "a corpus campaign dumps beside its corpus" false
    (Sys.file_exists name);
  check_opens_campaign ~seed:9 (read_dump (Filename.concat dir name));
  rm_rf dir;
  (* Every event recorded so far is stamped before this. *)
  let last_ts = Obs.Span.now () in
  let r2 = F.campaign ~generations:8 ~seed:10 config in
  Alcotest.(check bool) "second campaign violates" true (r2.F.violations > 0);
  let second = read_dump name in
  check_opens_campaign ~seed:10 second;
  List.iter
    (fun j ->
      match Obs.Json.member_int "ts" j with
      | Some ts when ts > last_ts -> ()
      | _ ->
          Alcotest.failf "second dump holds an event of the first: %s"
            (Obs.Json.to_string j))
    second

(* A witness is written to a temporary name and renamed into place. A
   leftover temporary from a killed writer does not end in .json, so a
   fleet over that directory neither counts it as a published class nor
   trips over it. *)
let test_fleet_witness_tmp_leftover () =
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-witness-tmp"
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let leftover = Filename.concat dir "witness-11d375a62583849e.json.tmp" in
  Out_channel.with_open_text leftover (fun oc -> output_string oc "{\"class\":");
  let r =
    F.campaign ~generations:8 ~seed:9 ~corpus_dir:dir (Msgpass.Chaos.frontier ())
  in
  (match r.F.witnesses with
  | [ w ] -> (
      Alcotest.(check int) "the leftover's class is still published"
        0x11d375a62583849e w.F.class_key;
      match F.replay_file (Option.get w.F.file) with
      | Ok rep ->
          Alcotest.(check bool) "renamed witness replays" true rep.F.bit_for_bit
      | Error e -> Alcotest.fail e)
  | ws -> Alcotest.failf "expected one witness, got %d" (List.length ws));
  (* The campaign violates, so its flight dump sits beside the corpus. *)
  Alcotest.(check (list string)) "no temporary survives the campaign"
    [
      "corpus.jsonl"; "flight-nonlinearizable.jsonl";
      "witness-11d375a62583849e.json";
    ]
    (List.sort compare (Array.to_list (Sys.readdir dir)));
  rm_rf dir

(* Hand-edited witness files (test/data) must come back as an [Error]
   naming the file: a t = n/2 config with no quorum override, a plan
   channel outside n, and a write count that overflows the packed
   message layout. *)
let test_fleet_replay_rejects_hand_edits () =
  List.iter
    (fun (file, needle) ->
      let file = Filename.concat "data" file in
      match Msgpass.Fleet.replay_file file with
      | Ok _ -> Alcotest.failf "%s replayed" file
      | Error e ->
          if not (contains e file && contains e needle) then
            Alcotest.failf "error for %s lacks %S: %s" file needle e)
    [
      ("witness-unsound-t.json", "t < n/2");
      ("witness-channel-out-of-range.json", "channel 9>0 out of range");
      ("witness-writes-outside-pack.json", "packed message layout");
    ];
  (* A path that exists but is no file to read gives an [Error] naming
     it too. *)
  match Msgpass.Fleet.replay_file "data" with
  | Ok _ -> Alcotest.fail "a directory replayed"
  | Error e ->
      if not (String.starts_with ~prefix:"data: " e) then
        Alcotest.failf "error for a directory does not name it: %s" e

(* Byte-edited copies of real witnesses (the frontier preset's and the
   1-bit churn config's, which carries a membership block) must replay
   or give an [Error] naming the file; no edit may raise. *)
let prop_witness_replay_survives_byte_edits =
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-witness-edits"
  in
  let witnesses =
    lazy
      (rm_rf dir;
       Sys.mkdir dir 0o755;
       let witness config seed =
         let sub = Filename.concat dir (string_of_int seed) in
         Sys.mkdir sub 0o755;
         match
           (F.campaign ~generations:8 ~seed ~corpus_dir:sub config).F.witnesses
         with
         | w :: _ ->
             In_channel.with_open_bin (Option.get w.F.file) In_channel.input_all
         | [] -> failwith "the campaign published no witness"
       in
       [|
         witness (Msgpass.Chaos.frontier ()) 9;
         witness (Msgpass.Chaos.churn ~width_bits:1 ()) 1;
       |])
  in
  let open QCheck.Gen in
  let chars s = List.of_seq (String.to_seq s) in
  let byte =
    frequency
      [
        (3, oneofl (chars "{}[]\":,0123456789-> "));
        (1, oneofl (chars "delivrupfcashentmq"));
        (1, map Char.chr (int_range 0 255));
      ]
  in
  let edits =
    pair (int_range 0 1)
      (list_size (int_range 1 3)
         (triple (int_range 0 2) (int_range 0 max_int) byte))
  in
  let print (which, edits) =
    Printf.sprintf "witness %d, edits %s" which
      (String.concat "; "
         (List.map (fun (k, at, b) -> Printf.sprintf "%d@%d %C" k at b) edits))
  in
  let cases = ref 0 in
  QCheck.Test.make ~name:"witness replay survives byte edits" ~count:200
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
          (Lazy.force witnesses).(which) edits
      in
      (* A fresh name per case: truncating a written file can cost tens
         of milliseconds on a filesystem that discards freed blocks. *)
      incr cases;
      let file = Filename.concat dir (Printf.sprintf "edited-%d.json" !cases) in
      Out_channel.with_open_bin file (fun oc -> output_string oc text);
      let result =
        match F.replay_file file with r -> Ok r | exception exn -> Error exn
      in
      Sys.remove file;
      match result with
      | Error exn ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string exn)
      | Ok (Ok _) -> true
      | Ok (Error e) ->
          String.starts_with ~prefix:(file ^ ": ") e
          || QCheck.Test.fail_reportf "error names no file: %s" e)

(* A hand-edited corpus that no longer loads names the file, the line
   on disk (blank lines counted) and, for JSON syntax, the column; a
   campaign over it raises [Corpus_error] with the same position. An
   operand outside the campaign's n parses, so only the campaign — which
   knows n — rejects it, naming the action. *)
let test_fleet_corpus_errors_name_the_line () =
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-corpus-lines"
  in
  let good id =
    Printf.sprintf {|{"id":%d,"origin":"seed","plan":["deliver 0>1"]}|} id
  in
  let campaign_error () =
    match
      F.campaign ~generations:0 ~corpus_dir:dir ~seed:1
        (Msgpass.Chaos.frontier ())
    with
    | _ -> None
    | exception F.Corpus_error e -> Some e
  in
  let expect_error what needle = function
    | None -> Alcotest.failf "%s: corpus loaded, expected %S" what needle
    | Some e ->
        if not (contains e needle) then
          Alcotest.failf "%s: corpus error lacks %S: %s" what needle e
  in
  List.iter
    (fun (lines, parses, needle) ->
      rm_rf dir;
      Sys.mkdir dir 0o755;
      Out_channel.with_open_text (Filename.concat dir "corpus.jsonl")
        (fun oc -> List.iter (fun l -> output_string oc (l ^ "\n")) lines);
      let loaded =
        match F.load_corpus dir with Ok _ -> None | Error e -> Some e
      in
      if parses then
        Alcotest.(check (option string)) "load_corpus parses it" None loaded
      else expect_error "load_corpus" needle loaded;
      expect_error "campaign" needle (campaign_error ()))
    [
      ( [ good 0; good 1; {|{"id":2,"origin":"seed","plan":["deliver 0>1"|} ],
        false,
        "corpus.jsonl:3: at 45: expected ']'" );
      ( [ good 0; ""; {|{"id":2,"origin":"seed","plan":["zap 3"]}|} ],
        false,
        "corpus.jsonl:3: plan element 0: unknown action keyword" );
      ( [ good 0; {|{"id":1,"origin":"seed","plan":["crash 1","deliver 0>9"]}|} ],
        true,
        "corpus.jsonl:2: action 2: channel 0>9 out of range (n = 4)" );
    ];
  (* Paths that cannot be opened are refused the same way, named: a
     corpus directory that is a regular file, a corpus.jsonl that is a
     directory, a corpus directory whose parent is missing. *)
  rm_rf dir;
  Out_channel.with_open_text dir ignore;
  expect_error "campaign over a file" (dir ^ ": ") (campaign_error ());
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "corpus.jsonl" in
  Sys.mkdir file 0o755;
  expect_error "load_corpus" (file ^ ": ")
    (match F.load_corpus dir with Ok _ -> None | Error e -> Some e);
  expect_error "campaign" (file ^ ": ") (campaign_error ());
  rm_rf dir;
  let orphan = Filename.concat dir "corpus" in
  (match
     F.campaign ~generations:0 ~corpus_dir:orphan ~seed:1
       (Msgpass.Chaos.frontier ())
   with
  | _ -> Alcotest.fail "a corpus under a missing directory opened"
  | exception F.Corpus_error e ->
      if not (String.starts_with ~prefix:(orphan ^ ": ") e) then
        Alcotest.failf "corpus error does not name %s: %s" orphan e)

let torn_lines () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "fleet.corpus_torn_lines")

(* A corpus whose last line lost its newline loads as before, and the
   next campaign ends that line before appending, so the line after it
   is not glued on and a third campaign still opens the corpus. *)
let test_fleet_unterminated_last_line () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-corpus-nl"
  in
  rm_rf dir;
  let r = F.campaign ~generations:2 ~seed:9 ~corpus_dir:dir config in
  let text = read_file (corpus_path dir) in
  let cut = String.sub text 0 (String.length text - 1) in
  write_file (corpus_path dir) cut;
  let torn0 = torn_lines () in
  let r2 = F.campaign ~generations:2 ~seed:11 ~corpus_dir:dir config in
  Alcotest.(check int) "no line counted torn" torn0 (torn_lines ());
  Alcotest.(check int) "every entry loaded" r.F.corpus_size
    (r2.F.corpus_size - r2.F.corpus_added);
  Alcotest.(check bool) "the resume appended" true (r2.F.corpus_added > 0);
  Alcotest.(check bool) "the old last line is ended, not rewritten" true
    (String.starts_with ~prefix:text (read_file (corpus_path dir)));
  (match F.load_corpus dir with
  | Ok entries ->
      Alcotest.(check int) "corpus reloads whole" r2.F.corpus_size
        (List.length entries)
  | Error e -> Alcotest.fail e);
  let r3 = F.campaign ~generations:1 ~seed:12 ~corpus_dir:dir config in
  Alcotest.(check int) "a third campaign opens it" r2.F.corpus_size
    (r3.F.corpus_size - r3.F.corpus_added);
  rm_rf dir

(* A kill mid-append leaves an unterminated line that is not JSON. It is
   loaded around and counted, and the next append cuts it off: the file
   is then its good prefix plus whole new lines. *)
let test_fleet_torn_tail () =
  let module F = Msgpass.Fleet in
  let config = Msgpass.Chaos.frontier () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-corpus-torn"
  in
  rm_rf dir;
  let r = F.campaign ~generations:8 ~seed:9 ~corpus_dir:dir config in
  let text = read_file (corpus_path dir) in
  let torn = String.sub text 0 (String.length text - 100) in
  let good = String.sub torn 0 (String.rindex torn '\n' + 1) in
  write_file (corpus_path dir) torn;
  let torn0 = torn_lines () in
  (match F.load_corpus dir with
  | Ok entries ->
      Alcotest.(check int) "all but the torn line load" (r.F.corpus_size - 1)
        (List.length entries)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "the torn line is counted" (torn0 + 1) (torn_lines ());
  Alcotest.(check string) "loading leaves the file alone" torn
    (read_file (corpus_path dir));
  let r2 = F.campaign ~generations:2 ~seed:11 ~corpus_dir:dir config in
  Alcotest.(check int) "the campaign drops it too" (r.F.corpus_size - 1)
    (r2.F.corpus_size - r2.F.corpus_added);
  Alcotest.(check bool) "the resume appended" true (r2.F.corpus_added > 0);
  let after = read_file (corpus_path dir) in
  Alcotest.(check bool) "the good prefix survives, the torn tail does not"
    true
    (String.starts_with ~prefix:good after
    && not (String.starts_with ~prefix:torn after));
  (match F.load_corpus dir with
  | Ok entries ->
      Alcotest.(check int) "the mended corpus loads whole" r2.F.corpus_size
        (List.length entries)
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "no torn line after the mend" (torn0 + 2)
    (torn_lines ());
  Alcotest.(check bool) "no temporary survives" false
    (Sys.file_exists (corpus_path dir ^ ".tmp"));
  rm_rf dir

(* The corpus reader before its line scanner, kept as the oracle: every
   nonblank line through Obs.Json, the entry fields (a ["sig"], when
   present, must be five ints) and plan_of_json,
   then, for a campaign, the operand check against [n]. The final line,
   when unterminated and not JSON, is torn and dropped. *)
let reference_corpus ?n file text =
  let lines = String.split_on_char '\n' text in
  let last = List.length lines in
  let entry j =
    let stamped =
      match Obs.Json.member "sig" j with
      | None -> true
      | Some (Obs.Json.List l) ->
          List.length l = 5
          && List.for_all (function Obs.Json.Int _ -> true | _ -> false) l
      | Some _ -> false
    in
    match
      ( Obs.Json.member_int "id" j,
        Obs.Json.member_str "origin" j,
        Obs.Json.member "plan" j )
    with
    | _ when not stamped -> Error "corpus entry sig needs five ints"
    | Some id, Some origin, Some pj ->
        Result.map
          (fun plan -> { Msgpass.Fleet.id; origin; plan })
          (Msgpass.Faults.plan_of_json pj)
    | _ -> Error "corpus entry needs id, origin and plan fields"
  in
  let checked (e : Msgpass.Fleet.entry) =
    match n with
    | None -> Ok e
    | Some n -> Result.map (fun () -> e) (Msgpass.Faults.check ~n e.plan)
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go (lineno + 1) acc rest
    | line :: rest -> (
        match Obs.Json.of_string line with
        | Error _ when lineno = last -> Ok (List.rev acc)
        | j -> (
            match Result.bind (Result.bind j entry) checked with
            | Ok e -> go (lineno + 1) (e :: acc) rest
            | Error e -> Error (Printf.sprintf "%s:%d: %s" file lineno e)))
  in
  go 1 [] lines

(* Corpus files as the printer writes them, with or without ["sig"],
   then edited at the byte level: a deleted, inserted or replaced byte, a
   space, a CR, a cut, keys in another order, leading zeros, operands
   255/256/300, ids near and past [max_int], a ["sig"] that is not five
   ints or whose ints are signed, padded or past [max_int]; the last line
   with or without its newline. *)
let corpus_text_gen =
  let open QCheck.Gen in
  let id =
    frequency
      [
        (4, nat);
        ( 1,
          oneofl
            [ max_int; max_int - 1; 999_999_999_999_999_999;
              1_000_000_000_000_000_000 ] );
      ]
  in
  let plan =
    fault_plan_gen_over (frequency [ (9, int_bound 3); (1, pure 4) ])
  in
  let edit (op, pos, byte) line =
    let len = String.length line in
    let splice i drop ins =
      String.sub line 0 i ^ ins ^ String.sub line (i + drop) (len - i - drop)
    in
    let rec find lit i =
      if i + String.length lit > len then None
      else if String.sub line i (String.length lit) = lit then Some i
      else find lit (i + 1)
    in
    let after lit ins =
      match find lit 0 with
      | Some i -> splice (i + String.length lit) 0 ins
      | None -> line
    in
    let pick a = a.(Char.code byte mod Array.length a) in
    match op with
    | 0 -> splice (pos mod len) 1 ""
    | 1 -> splice (pos mod (len + 1)) 0 (String.make 1 byte)
    | 2 -> splice (pos mod len) 1 (String.make 1 byte)
    | 3 -> splice (pos mod (len + 1)) 0 " "
    | 4 -> line ^ "\r"
    | 5 -> String.sub line 0 (pos mod len)
    | 6 -> splice (len - 1) (pos land 1) (String.make 1 byte)
    | 7 -> after "\"id\":" "00"
    | 8 -> (
        (* a leading zero on the first action's first operand *)
        match find "\"plan\":[\"" 0 with
        | Some i -> (
            match String.index_from_opt line i ' ' with
            | Some j -> splice (j + 1) 0 "0"
            | None -> line)
        | None -> line)
    | 9 -> (
        let x =
          pick [| "deliver 0>255"; "crash 256"; "dup 300>1"; "leave 255" |]
        in
        let x = "\"" ^ x ^ "\"" in
        match String.rindex_opt line ']' with
        | Some i when i > 0 && line.[i - 1] = '[' -> splice i 0 x
        | Some i -> splice i 0 ("," ^ x)
        | None -> line)
    | 10 -> (
        match String.index_opt line ',' with
        | Some i ->
            "{\"id\":"
            ^ pick [| "4611686018427387904"; "4611686018427387903"; "-7" |]
            ^ String.sub line i (len - i)
        | None -> line)
    | 11 -> (
        (* the sig array replaced, or one put where there was none *)
        let bad =
          pick
            [| "[1,2,3,4]"; "[1,2,3,4,5,6]"; "[1,2,\"3\",4,5]"; "null"; "{}";
               "[]"; "[1.5,2,3,4,5]"; "[1,2,3,4,4611686018427387904]";
               "[-0,007,+3,4,-4611686018427387904]"; "[1,2,3,4,5]" |]
        in
        match (find "\"sig\":[" 0, find "\"plan\":" 0) with
        | Some i, _ ->
            let j = String.index_from line i ']' in
            splice (i + 6) (j + 1 - i - 6) bad
        | None, Some i -> splice i 0 ("\"sig\":" ^ bad ^ ",")
        | None, None -> line)
    | 12 ->
        after "\"sig\":["
          (pick [| "-"; "0"; "-0"; "--"; "99999999999999999999" |])
    | _ -> line
  in
  let line =
    map2
      (fun (id, origin, plan, (reorder, stamp)) e ->
        let sig_ =
          match stamp with
          | Some v -> [ ("sig", json_ints v) ]
          | None -> []
        in
        if reorder then
          Obs.Json.to_string
            (Obs.Json.Obj
               ([
                  ("plan", Msgpass.Faults.plan_to_json plan);
                  ("origin", Obs.Json.Str origin);
                ]
               @ sig_
               @ [ ("id", Obs.Json.Int id) ]))
        else
          let buf = Buffer.create 64 in
          print_corpus_line buf ~id ~origin
            (Option.value stamp ~default:[ 0; 0; 0; 0; 0 ])
            (Msgpass.Faults.compile ~n:256 plan);
          let text = Buffer.contents buf in
          edit e (if stamp = None then strip_sig text else text))
      (quad id origin_gen plan
         (pair (map (fun k -> k = 0) (int_bound 7)) (opt stamp_gen)))
      (frequency
         [ (3, pure (-1, 0, ' '));
           (4, triple (int_bound 12) nat char) ])
  in
  map2
    (fun lines terminated ->
      String.concat "\n" lines ^ if terminated then "\n" else "")
    (list_size (int_range 1 4) line)
    bool

(* Printer lines go through the scanner, edited ones through Obs.Json:
   either way [load_corpus] and a campaign's open return exactly what
   the reference returns — the same entries or the same error text —
   and never raise or touch the file. *)
let prop_corpus_reader_matches_reference =
  let module F = Msgpass.Fleet in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "boundedreg-corpus-prop"
  in
  let file = corpus_path dir in
  QCheck.Test.make ~name:"corpus reader agrees with its reference" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") corpus_text_gen)
    (fun text ->
      rm_rf dir;
      Sys.mkdir dir 0o755;
      write_file file text;
      let opened =
        match
          F.campaign ~generations:0 ~corpus_dir:dir ~seed:1
            (Msgpass.Chaos.frontier ())
        with
        | r -> Ok r.F.corpus_size
        | exception F.Corpus_error e -> Error e
      in
      let agrees =
        F.load_corpus dir = reference_corpus file text
        && opened = Result.map List.length (reference_corpus ~n:4 file text)
        && read_file file = text
      in
      rm_rf dir;
      agrees)

(* ABD + Interp over the complete network: baseline eps-agreement survives
   minority crashes. *)
let test_abd_message_passing () =
  let n = 3 and t = 1 and rounds = 3 in
  let eps = Q.make 1 (Core.Baseline_unbounded.denominator ~rounds) in
  for seed = 0 to 39 do
    let rng = Bits.Rng.make seed in
    let inputs = Array.init n (fun _ -> Bits.Rng.int rng 2) in
    let interps =
      Array.init n (fun me ->
          Msgpass.Interp.create ~n ~t ~me ~init:[]
            ~program:
              (Core.Baseline_unbounded.protocol ~n ~rounds ~me
                 ~input:inputs.(me)))
    in
    let net =
      Msgpass.Net.create ~n
        ~nodes:(fun ~send pid -> Msgpass.Interp.node interps.(pid) ~send)
        ()
    in
    let crash_pid = if Bits.Rng.bool rng then Some (Bits.Rng.int rng n) else None in
    let crash_at = Bits.Rng.int rng 300 in
    (* Crash (if at all) after [crash_at] events, then run on. *)
    let crash = Option.map (fun p -> (p, crash_at)) crash_pid in
    run_reliable rng net ~crash_at:(Option.to_list crash);
    let decided =
      Array.to_list interps
      |> List.mapi (fun pid (i, _) -> (pid, Msgpass.Interp.decision i))
      |> List.filter (fun (pid, _) -> Msgpass.Net.alive net pid)
    in
    List.iter
      (fun (pid, d) ->
        if d = None then
          Alcotest.failf "seed %d: live process %d undecided" seed pid)
      decided;
    let values = List.filter_map snd decided in
    Alcotest.(check bool) "agreement" true Q.(Q.spread values <= eps)
  done

(* ABD atomicity: a single writer bumps a counter through ABD writes while
   two readers read concurrently. Atomic SWMR registers forbid per-reader
   regression and new/old inversions across readers (a read that starts
   after another read completes cannot return an older value). *)
let test_abd_atomicity () =
  let n = 5 and t = 2 in
  let open Sched.Program.Infix in
  let writer_program =
    let rec bump i =
      if i > 10 then Sched.Program.return []
      else
        let* () = Sched.Program.write i in
        bump (i + 1)
    in
    bump 1
  in
  let reader_program =
    let rec scan k acc =
      if k = 0 then Sched.Program.return (List.rev acc)
      else
        let* v = Sched.Program.read 0 in
        scan (k - 1) (v :: acc)
    in
    scan 12 []
  in
  for seed = 0 to 29 do
    let interps =
      Array.init n (fun me ->
          Msgpass.Interp.create ~n ~t ~me ~init:0
            ~program:
              (if me = 0 then writer_program
               else if me <= 2 then reader_program
               else Sched.Program.return []))
    in
    let net =
      Msgpass.Net.create ~n
        ~nodes:(fun ~send pid -> Msgpass.Interp.node interps.(pid) ~send)
        ()
    in
    run_reliable (Bits.Rng.make (400 + seed)) net;
    (* Per-reader monotonicity: the sequence of values each reader returns
       never decreases (reads are sequential per process, so regression
       would be a new/old inversion against its own earlier read). *)
    for r = 1 to 2 do
      match Msgpass.Interp.decision (fst interps.(r)) with
      | Some values ->
          let rec monotone = function
            | a :: b :: rest -> a <= b && monotone (b :: rest)
            | _ -> true
          in
          if not (monotone values) then
            Alcotest.failf "seed %d: reader %d regressed: %s" seed r
              (String.concat "," (List.map string_of_int values))
      | None -> Alcotest.failf "seed %d: reader %d blocked" seed r
    done
  done

(* Routing over the ring in the Net model: flooding delivers despite t
   crashed forwarders. *)
let test_router_flooding () =
  let n = 7 and t = 2 in
  let topology = T.augmented_ring ~n ~t in
  let routers = Array.init n (fun me -> Msgpass.Router.create ~topology ~me) in
  let delivered = ref [] in
  let nodes pid =
    {
      Oracle.Netref.on_start =
        (fun () ->
          if pid = 0 then
            (* 0 sends to its antipode through the ring. *)
            let local, outs = Msgpass.Router.send routers.(0) ~dest:4 "ping" in
            assert (local = []);
            outs
          else []);
      on_message =
        (fun ~from:_ envelope ->
          let deliveries, forwards =
            Msgpass.Router.receive routers.(pid) envelope
          in
          List.iter
            (fun (e : _ Msgpass.Router.envelope) ->
              delivered := (pid, e.body) :: !delivered)
            deliveries;
          forwards);
      on_leave = (fun () -> []);
    }
  in
  let net = Msgpass.Net.create ~n ~nodes:(Oracle.Netref.lift nodes) () in
  (* Crash two consecutive intermediate nodes. *)
  Msgpass.Net.crash net 1;
  Msgpass.Net.crash net 2;
  run_reliable (Bits.Rng.make 7) net;
  Alcotest.(check (list (pair int string)))
    "delivered exactly once despite crashes"
    [ (4, "ping") ]
    !delivered

(* Theorem 1.3 end-to-end: the compiled protocol solves eps-agreement with
   3(t+1)-bit registers under t-resilient crash injection. *)
let pipeline_algorithm ~n ~t ~rounds ~chunk =
  let value = Wire.list_codec (Wire.pair_codec Wire.int_codec Wire.rational_codec) in
  Msgpass.Pipeline.algorithm ~n ~t ~chunk ~value ~input:Wire.int_codec
    ~init:[]
    ~source:(fun ~pid ~input ->
      Core.Baseline_unbounded.protocol ~n ~rounds ~me:pid ~input)
    ~name:(Printf.sprintf "pipeline(n=%d,t=%d,chunk=%d)" n t chunk)
    ()

let test_pipeline_register_bits () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "3(t+1) bits for t=%d" t)
        (3 * (t + 1))
        (Msgpass.Pipeline.register_bits ~t ~chunk:1))
    [ 1; 2; 3; 5 ]

let test_pipeline_end_to_end () =
  let n = 3 and t = 1 and rounds = 2 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk:1 in
  match
    H.check_random ~task ~algorithm ~resilience:t ~max_steps:30_000_000
      ~runs:3 ~seed:11 ()
  with
  | H.Fail v ->
      Alcotest.failf "pipeline: %a" (H.pp_violation Format.pp_print_int) v
  | H.Pass stats ->
      Alcotest.(check int) "6-bit registers" 6 stats.H.max_bits

(* Exact steps pin the schedule: a poll-loop change that moves one step
   under a chunk wider than one bit fails here, not only in E5's table.
   Seed 1 at resilience 1 crashes p0 after its 10th step. *)
let test_pipeline_chunk_ablation () =
  let n = 3 and t = 1 and rounds = 2 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let steps_for ~chunk ~resilience ~seed =
    let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk in
    match
      H.check_random ~task ~algorithm ~resilience ~max_steps:30_000_000
        ~runs:1 ~seed ()
    with
    | H.Fail v ->
        Alcotest.failf "pipeline chunk=%d: %a" chunk
          (H.pp_violation Format.pp_print_int)
          v
    | H.Pass stats -> (stats.H.max_bits, stats.H.max_process_steps)
  in
  let bits1, steps1 = steps_for ~chunk:1 ~resilience:0 ~seed:5 in
  let bits8, steps8 = steps_for ~chunk:8 ~resilience:0 ~seed:5 in
  let _, crashed2 = steps_for ~chunk:2 ~resilience:1 ~seed:1 in
  Alcotest.(check int) "chunk=1 register width" 6 bits1;
  Alcotest.(check bool) "chunk=8 wider registers" true (bits8 > bits1);
  Alcotest.(check int) "chunk=1 steps per process" 2_531_249 steps1;
  Alcotest.(check int) "chunk=8 steps per process" 317_370 steps8;
  Alcotest.(check int) "chunk=2 crash run's steps per process" 475_200
    crashed2

(* The pipeline's programs are stateful: each run must compile its own.
   Seeds 4 and 5 both draw input configuration 5; a per-configuration
   code cache would replay seed 4's mutated router and channel state in
   seed 5, where decoding a garbled envelope raises. *)
let test_pipeline_check_random_fresh_code () =
  let n = 3 and t = 1 and rounds = 1 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk:1 in
  match
    H.check_random ~task ~algorithm ~resilience:t ~max_steps:30_000_000
      ~runs:5 ~seed:1 ()
  with
  | H.Fail v ->
      Alcotest.failf "pipeline: %a" (H.pp_violation Format.pp_print_int) v
  | H.Pass stats ->
      Alcotest.(check int) "seed 5's steps per process" 937_776
        stats.H.max_process_steps

(* Seed 31 through [check_random]'s seeded drive: its rng (already past
   the input and crash draws), crash pattern, compiled code and state. *)
let pipeline_seed31 () =
  let n = 3 and t = 1 and rounds = 1 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk:1 in
  let configurations = Array.of_list (Tasks.Task.input_configurations task) in
  let rng = Bits.Rng.make 31 in
  let inputs =
    configurations.(Bits.Rng.int rng (Array.length configurations))
  in
  let crashes =
    let how_many = Bits.Rng.int rng (t + 1) in
    let pids = Array.init n Fun.id in
    Bits.Rng.shuffle rng pids;
    List.init how_many (fun i -> (pids.(i), Bits.Rng.int rng 30))
  in
  let codes =
    Array.init n (fun pid ->
        Sched.Program.compile (algorithm.H.program ~pid ~input:inputs.(pid)))
  in
  let state =
    Sched.Scheduler.start_compiled ~memory:(algorithm.H.memory ())
      ~programs:(fun pid -> codes.(pid))
      ()
  in
  (rng, crashes, codes, state)

(* ~927k steps per process, and each process's code is two scratch slots
   plus its one announced decision. *)
let test_pipeline_constant_code () =
  let rng, crashes, codes, state = pipeline_seed31 () in
  Sched.Scheduler.run_random ~max_steps:30_000_000 ~crashes
    ~until_outputs:true rng state;
  Alcotest.(check bool) "every survivor decided" true
    (Sched.Scheduler.all_output state);
  let per_proc =
    List.fold_left max 0
      (List.init (Array.length codes) (Sched.Scheduler.steps_of state))
  in
  Alcotest.(check int) "steps per process" 927_045 per_proc;
  Array.iteri
    (fun pid code ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d compiled length <= 3" pid)
        true
        (Sched.Program.Compiled.length code <= 3))
    codes

(* Allocation ceiling for the simulation's driver loop: the first 300k
   steps of seed 31 allocate 9.0 minor words per step (OCaml 5.1.1,
   x86-64). A read step allocates only its scratch slot's continuation
   tag; the rest is the alternating-bit channels' work and a fresh
   register on the publishes that change one. The ceiling leaves three
   words of margin: a poll loop that rebuilds its nodes or its register
   every cycle costs ~24, the list-building random driver and the
   [bind]-wrapped poll loop ~95. Words are counted, not timed, so the
   bound is deterministic on a given compiler. *)
let test_pipeline_allocation_ceiling () =
  let rng, crashes, _, state = pipeline_seed31 () in
  let steps = 300_000 in
  let before = Gc.minor_words () in
  Sched.Scheduler.run_random ~max_steps:steps ~crashes ~until_outputs:true rng
    state;
  let per_step = (Gc.minor_words () -. before) /. float_of_int steps in
  Alcotest.(check int) "steps driven" steps (Sched.Scheduler.steps_taken state);
  if per_step > 12. then
    Alcotest.failf "%.1f minor words per step (ceiling 12)" per_step

(* Exhaustive checking explores, and exploration branches: both refuse
   the pipeline's stateful programs instead of backtracking into them. *)
let test_pipeline_refuses_explore () =
  let n = 3 and t = 1 and rounds = 1 in
  let task =
    Tasks.Eps_agreement.task ~n ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  let algorithm = pipeline_algorithm ~n ~t ~rounds ~chunk:1 in
  match H.check_exhaustive ~task ~algorithm ~max_steps:8 () with
  | _ -> Alcotest.fail "explored a stateful program"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "msgpass"
    [
      ( "substrate",
        [
          Alcotest.test_case "augmented ring connectivity" `Quick
            test_topology_connectivity;
          Alcotest.test_case "connectivity is tight" `Quick
            test_topology_not_overconnected;
          Alcotest.test_case "stored predecessors = filter definition" `Quick
            test_topology_predecessors;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "codec framing" `Quick test_codec_framing;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_framing_stream;
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip_boundary;
          Alcotest.test_case "pack fits_static boundaries" `Quick
            test_pack_fits_static_boundaries;
          Alcotest.test_case "envelope codec" `Quick test_wire_envelope_codec;
          Alcotest.test_case "alternating-bit channel" `Quick
            test_alt_bit_channel;
          QCheck_alcotest.to_alcotest prop_alt_bit_fifo;
        ] );
      ( "faults",
        [
          Alcotest.test_case "scripted delivery is FIFO" `Quick
            test_net_scripted_delivery;
          Alcotest.test_case "delivery respects crashes" `Quick
            test_net_deliver_respects_crash;
          QCheck_alcotest.to_alcotest prop_net_random_fifo;
          Alcotest.test_case "defer breaks FIFO (Faults only)" `Quick
            test_faults_defer_breaks_fifo;
          Alcotest.test_case "drop and duplicate" `Quick
            test_faults_drop_and_duplicate;
          Alcotest.test_case "chaos campaigns are seed-deterministic" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "traced seeds replay their runs" `Quick
            test_chaos_traced_seed_replay;
          QCheck_alcotest.to_alcotest prop_plan_codec_roundtrip;
          Alcotest.test_case "action parser: canonical 0..300" `Quick
            test_action_parser_canonical;
          QCheck_alcotest.to_alcotest prop_action_parser_matches_reference;
          QCheck_alcotest.to_alcotest prop_corpus_line_matches_json_tree;
          Alcotest.test_case "pp_plan line breaking is pinned" `Quick
            test_pp_plan_golden;
          QCheck_alcotest.to_alcotest prop_net_matches_netref;
          QCheck_alcotest.to_alcotest prop_random_driver_matches_reference;
          Alcotest.test_case "random driver thaws by decree" `Quick
            test_random_driver_thaw_by_decree;
          Alcotest.test_case "hop bucket edges" `Quick test_hop_bucket_edges;
          Alcotest.test_case "plan parser rejects garbage" `Quick
            test_plan_codec_rejects_garbage;
          Alcotest.test_case "plan parse errors are positional" `Quick
            test_plan_parse_errors_are_positional;
          QCheck_alcotest.to_alcotest prop_plan_parser_survives_byte_edits;
          QCheck_alcotest.to_alcotest prop_compiled_printer_matches_reference;
          QCheck_alcotest.to_alcotest prop_compiled_scanner_matches_reference;
          Alcotest.test_case "fleet mutator is seed-deterministic" `Quick
            test_fleet_mutator_deterministic;
          Alcotest.test_case "mutation draws are pinned" `Quick
            test_mutation_draws_pinned;
          QCheck_alcotest.to_alcotest prop_fleet_mutants_replay;
          Alcotest.test_case "fleet refuses seed_members 0" `Quick
            (test_fleet_refuses "seed_members"
               (Msgpass.Chaos.churn ~seed_members:0 ()));
          Alcotest.test_case "fleet refuses quorum 0" `Quick
            (test_fleet_refuses "quorum"
               { (Msgpass.Chaos.sound ()) with Msgpass.Chaos.quorum = Some 0 });
          Alcotest.test_case "fleet refuses churn_window 0" `Quick
            (test_fleet_refuses "churn_window"
               (Msgpass.Chaos.churn ~window:0 ()));
          Alcotest.test_case "fleet reports are jobs-invariant" `Quick
            test_fleet_jobs_invariant;
          Alcotest.test_case "fleet dedups, replays and resumes witnesses"
            `Quick test_fleet_witness_dedup_and_replay;
          Alcotest.test_case "fleet mutants find coverage" `Quick
            test_fleet_mutator_alive;
          Alcotest.test_case "fleet run cache answers a resume" `Quick
            test_fleet_cache_alive;
          Alcotest.test_case "fleet reports pin the cache counts" `Quick
            test_fleet_reports_pinned;
          Alcotest.test_case "fleet sigs replay under their config" `Quick
            test_fleet_signatures_replay;
          Alcotest.test_case "fleet resume reads sigs, else re-runs" `Quick
            test_fleet_resume_reads_signatures;
          Alcotest.test_case "fleet lying sig steers coverage only" `Quick
            test_fleet_lying_signature;
          Alcotest.test_case "parallel campaigns match sequential" `Quick
            test_chaos_jobs_invariant;
          Alcotest.test_case "fleet dumps are scoped to their campaign"
            `Quick test_fleet_dump_scoped_to_campaign;
          Alcotest.test_case "witness temp leftovers are not classes" `Quick
            test_fleet_witness_tmp_leftover;
          Alcotest.test_case "witness replay rejects hand edits" `Quick
            test_fleet_replay_rejects_hand_edits;
          QCheck_alcotest.to_alcotest prop_witness_replay_survives_byte_edits;
          Alcotest.test_case "corpus errors name the line" `Quick
            test_fleet_corpus_errors_name_the_line;
          Alcotest.test_case "corpus last line without newline" `Quick
            test_fleet_unterminated_last_line;
          Alcotest.test_case "corpus torn tail is dropped and cut" `Quick
            test_fleet_torn_tail;
          QCheck_alcotest.to_alcotest prop_corpus_reader_matches_reference;
        ] );
      ( "membership",
        [
          Alcotest.test_case "view algebra and quorum rule" `Quick
            test_membership_views;
          QCheck_alcotest.to_alcotest prop_churn_schedule_rate_bounded;
          Alcotest.test_case "dynreg join, read, write, departure" `Quick
            test_dynreg_join_read_write;
          Alcotest.test_case "config validation" `Quick test_chaos_validate;
          Alcotest.test_case "churn mutation grammar is opt-in and \
                              deterministic" `Quick test_fleet_churn_mutants;
        ] );
      ( "message-passing",
        [
          Alcotest.test_case "ABD eps-agreement with crashes" `Quick
            test_abd_message_passing;
          Alcotest.test_case "ABD atomicity (reader monotonicity)" `Quick
            test_abd_atomicity;
          QCheck_alcotest.to_alcotest prop_abd_encodings_agree;
          Alcotest.test_case "ring flooding survives crashes" `Quick
            test_router_flooding;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "register bits = 3(t+1)" `Quick
            test_pipeline_register_bits;
          Alcotest.test_case "theorem 1.3 end-to-end" `Slow
            test_pipeline_end_to_end;
          Alcotest.test_case "chunk ablation" `Slow
            test_pipeline_chunk_ablation;
          Alcotest.test_case "check_random compiles each run afresh" `Slow
            test_pipeline_check_random_fresh_code;
          Alcotest.test_case "constant-size compiled code" `Slow
            test_pipeline_constant_code;
          Alcotest.test_case "minor words per step" `Quick
            test_pipeline_allocation_ceiling;
          Alcotest.test_case "exhaustive checking refused" `Quick
            test_pipeline_refuses_explore;
        ] );
    ]
