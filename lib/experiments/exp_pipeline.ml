(* E5 — Theorem 1.3 / Proposition 6.1: the minority-crash compilation to
   3(t+1)-bit registers, plus the chunk-width ablation. *)

module Q = Bits.Rational
module W = Msgpass.Wire
module H = Tasks.Harness

let value_codec = W.list_codec (W.pair_codec W.int_codec W.rational_codec)

let algorithm ~n ~t ~rounds ~chunk =
  Msgpass.Pipeline.algorithm ~n ~t ~chunk ~value:value_codec
    ~input:W.int_codec ~init:[]
    ~source:(fun ~pid ~input ->
      Core.Baseline_unbounded.protocol ~n ~rounds ~me:pid ~input)
    ~name:(Printf.sprintf "pipeline(n=%d,t=%d)" n t)
    ()

(* [`Stopped] when the deadline passed before all [runs] finished. *)
let measure ~budget ~n ~t ~rounds ~chunk ~runs ~seed =
  let task =
    Tasks.Eps_agreement.task ~n
      ~k:(Core.Baseline_unbounded.denominator ~rounds)
  in
  match
    H.check_random ~task
      ~algorithm:(algorithm ~n ~t ~rounds ~chunk)
      ~resilience:t ~max_steps:400_000_000 ~budget ~runs ~seed ()
  with
  | H.Pass stats when stats.H.runs < runs -> `Stopped
  | H.Pass stats -> `Pass stats
  | H.Fail _ -> `Violation

let run ctx ppf =
  Format.fprintf ppf
    "Compile the unbounded-register eps-agreement baseline through ABD@\n\
     quorums, t-augmented-ring flooding, and per-link alternating-bit@\n\
     channels. Register width is 3(t+1) bits regardless of the source@\n\
     protocol; runs include up to t crash injections.@\n@\n";
  (* The n = 7 row alone takes ~80 s (message volume grows with n(t+1)
     link copies), so under a supervision deadline a row still running
     when it passes is stopped, and so is every row after it: each gets
     only what is left of the experiment's deadline. Stopped rows are
     reported as skipped — degraded, not killed. *)
  let monitor = Sched.Budget.arm ctx.Ctx.budget in
  let skipped = ref 0 in
  let row ~n ~t ~rounds ~chunk ~runs ~seed ~key ~cols ok =
    let budget = Sched.Budget.remaining monitor ~nodes:0 in
    match measure ~budget ~n ~t ~rounds ~chunk ~runs ~seed with
    | `Pass stats -> ok stats
    | `Violation -> key @ List.init cols (fun _ -> "-") @ [ "VIOLATION" ]
    | `Stopped ->
        incr skipped;
        key @ List.init cols (fun _ -> "-") @ [ "skipped (deadline)" ]
  in
  let rows =
    List.map
      (fun (n, t, rounds, runs) ->
        let declared = Msgpass.Pipeline.register_bits ~t ~chunk:1 in
        row ~n ~t ~rounds ~chunk:1 ~runs ~seed:31
          ~key:[ string_of_int n; string_of_int t ]
          ~cols:4
          (fun stats ->
            [
              string_of_int n;
              string_of_int t;
              Table.cell_q
                (Q.make 1 (Core.Baseline_unbounded.denominator ~rounds));
              Printf.sprintf "%d (= 3(t+1) = %d)" stats.H.max_bits declared;
              string_of_int stats.H.max_process_steps;
              string_of_int stats.H.runs;
              "pass";
            ]))
      [ (3, 1, 2, 2); (5, 2, 1, 1); (7, 3, 1, 1) ]
  in
  Table.print ppf
    ~title:"E5a  Theorem 1.3 pipeline (t < n/2, crash injection <= t)"
    ~headers:[ "n"; "t"; "eps"; "register bits"; "steps/proc"; "runs"; "verdict" ]
    rows;
  let ablation =
    List.map
      (fun chunk ->
        row ~n:3 ~t:1 ~rounds:2 ~chunk ~runs:1 ~seed:5
          ~key:[ string_of_int chunk ] ~cols:2 (fun stats ->
            [
              string_of_int chunk;
              string_of_int (Msgpass.Pipeline.register_bits ~t:1 ~chunk);
              string_of_int stats.H.max_process_steps;
              "pass";
            ]))
      [ 1; 2; 4; 8; 16 ]
  in
  Table.print ppf
    ~title:
      "E5b  Ablation (n=3, t=1): alternating-bit payload width vs steps — \
       the register-size/time trade-off"
    ~headers:[ "chunk bits"; "register bits"; "steps/proc"; "verdict" ]
    ablation;
  if !skipped > 0 then
    ctx.Ctx.degraded
      (Printf.sprintf "pipeline: %d row(s) skipped at the deadline" !skipped)
