(* Tests for lib/bits: rationals, width accounting, deterministic RNG. *)

module Q = Bits.Rational
module W = Bits.Width
module Rng = Bits.Rng

let q = Alcotest.testable Q.pp Q.equal

let test_rational_normalization () =
  Alcotest.(check q) "6/8 = 3/4" (Q.make 3 4) (Q.make 6 8);
  Alcotest.(check q) "-6/-8 = 3/4" (Q.make 3 4) (Q.make (-6) (-8));
  Alcotest.(check q) "1/-2 = -1/2" (Q.make (-1) 2) (Q.make 1 (-2));
  Alcotest.(check int) "den positive" 2 (Q.den (Q.make 1 (-2)));
  Alcotest.(check q) "0/7 = 0" Q.zero (Q.make 0 7);
  Alcotest.(check int) "0 has den 1" 1 (Q.den (Q.make 0 7))

let test_rational_arithmetic () =
  Alcotest.(check q) "1/2 + 1/3" (Q.make 5 6) (Q.add Q.half (Q.make 1 3));
  Alcotest.(check q) "1/2 - 1/3" (Q.make 1 6) (Q.sub Q.half (Q.make 1 3));
  Alcotest.(check q) "2/3 * 3/4" Q.half (Q.mul (Q.make 2 3) (Q.make 3 4));
  Alcotest.(check q) "(1/2) / (1/4)" (Q.of_int 2) (Q.div Q.half (Q.make 1 4));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "make _ 0" Division_by_zero (fun () ->
      ignore (Q.make 1 0))

let test_rational_spread () =
  Alcotest.(check q) "spread of empty" Q.zero (Q.spread []);
  Alcotest.(check q) "spread singleton" Q.zero (Q.spread [ Q.half ]);
  Alcotest.(check q) "spread mixed" (Q.make 5 6)
    (Q.spread [ Q.make 1 3; Q.one; Q.make 1 6; Q.half ])

let qgen =
  QCheck.Gen.(
    map2
      (fun n d -> Q.make n (1 + abs d))
      (int_range (-1000) 1000) (int_bound 1000))

let arb_q = QCheck.make ~print:Q.to_string qgen

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:300 (QCheck.pair arb_q arb_q)
    (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"add associative" ~count:300
    (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
      Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)))

let prop_mul_distributes =
  QCheck.Test.make ~name:"mul distributes over add" ~count:300
    (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
      Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_sub_add_inverse =
  QCheck.Test.make ~name:"a - b + b = a" ~count:300 (QCheck.pair arb_q arb_q)
    (fun (a, b) -> Q.equal (Q.add (Q.sub a b) b) a)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:300
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
      Q.compare a b = -Q.compare b a)

let prop_normal_form =
  QCheck.Test.make ~name:"results in lowest terms" ~count:300
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
      let r = Q.add a b in
      let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
      Q.den r > 0 && gcd (abs (Q.num r)) (Q.den r) <= 1 || Q.num r = 0)

let test_bits_for () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int) (Printf.sprintf "bits_for %d" n) expected
        (W.bits_for n))
    [ (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (255, 8); (256, 9) ]

let test_width_check () =
  W.check W.Unbounded max_int;
  W.check (W.Bounded 3) 3;
  Alcotest.check_raises "overflow raises"
    (W.Overflow { budget = 3; needed = 4 })
    (fun () -> W.check (W.Bounded 3) 4)

let test_width_measures () =
  Alcotest.(check int) "bit" 1 (W.bit true);
  Alcotest.(check int) "uint max=5 is 3 bits" 3 (W.uint ~max:5 4);
  Alcotest.(check int) "enum 3 is 2 bits" 2 (W.enum ~cardinal:3 ());
  Alcotest.(check int) "option none" 1 (W.option W.bit None);
  Alcotest.(check int) "option some" 2 (W.option W.bit (Some true));
  Alcotest.(check int) "pair" 4 (W.pair W.bit (W.uint ~max:5) (true, 2));
  Alcotest.(check int) "unbounded free" 0 (W.unbounded "anything");
  Alcotest.check_raises "uint out of range"
    (Invalid_argument "Width.uint: 9 outside [0..5]") (fun () ->
      ignore (W.uint ~max:5 9))

let test_rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let seq r = List.init 50 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b);
  let c = Rng.make 43 in
  Alcotest.(check bool) "different seed differs" true (seq (Rng.make 42) <> seq c)

let test_rng_bounds () =
  let r = Rng.make 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 1000 do
    let f = Rng.float r in
    if f < 0. || f >= 1. then Alcotest.failf "float out of range: %f" f
  done

let test_rng_shuffle_is_permutation () =
  let r = Rng.make 99 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_copy_and_split () =
  let r = Rng.make 5 in
  ignore (Rng.int r 10);
  let c = Rng.copy r in
  Alcotest.(check int) "copy continues identically" (Rng.int r 1000)
    (Rng.int c 1000);
  let s = Rng.split r in
  Alcotest.(check bool) "split diverges" true
    (List.init 20 (fun _ -> Rng.int r 100)
    <> List.init 20 (fun _ -> Rng.int s 100))

(* The splitmix64 stream is part of every seeded result (schedules, chaos
   plans, fleet corpora): the first draws of a fixed seed are pinned, and
   a draw keeps the state in registers, allocating nothing. *)
let test_rng_stream_pinned () =
  let r = Rng.make 2024 in
  Alcotest.(check (list int)) "int 1000" [ 826; 721; 735; 212 ]
    (List.init 4 (fun _ -> Rng.int r 1000));
  Alcotest.(check (list bool)) "bool" [ false; true; true; false ]
    (List.init 4 (fun _ -> Rng.bool r));
  Alcotest.(check (list int)) "bits53"
    [ 1520887044732220; 3844783598175936; 4157326343513140 ]
    (List.init 3 (fun _ -> Rng.bits53 r));
  Alcotest.(check (float 0.)) "float" 0x1.ac8947332d4b9p-1 (Rng.float r)

let test_rng_draws_allocate_nothing () =
  let r = Rng.make 7 in
  let draws = 100_000 in
  let per_draw name draw =
    let acc = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to draws do
      acc := !acc lxor draw ()
    done;
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity !acc);
    Alcotest.(check int) (name ^ ": minor words per draw") 0
      (int_of_float (words /. float_of_int draws))
  in
  per_draw "int" (fun () -> Rng.int r 1000);
  per_draw "bool" (fun () -> Bool.to_int (Rng.bool r));
  per_draw "bits53" (fun () -> Rng.bits53 r)

let () =
  Alcotest.run "bits"
    [
      ( "rational",
        [
          Alcotest.test_case "normalization" `Quick test_rational_normalization;
          Alcotest.test_case "arithmetic" `Quick test_rational_arithmetic;
          Alcotest.test_case "spread" `Quick test_rational_spread;
          QCheck_alcotest.to_alcotest prop_add_comm;
          QCheck_alcotest.to_alcotest prop_add_assoc;
          QCheck_alcotest.to_alcotest prop_mul_distributes;
          QCheck_alcotest.to_alcotest prop_sub_add_inverse;
          QCheck_alcotest.to_alcotest prop_compare_antisym;
          QCheck_alcotest.to_alcotest prop_normal_form;
        ] );
      ( "width",
        [
          Alcotest.test_case "bits_for" `Quick test_bits_for;
          Alcotest.test_case "budget check" `Quick test_width_check;
          Alcotest.test_case "measures" `Quick test_width_measures;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle permutes" `Quick
            test_rng_shuffle_is_permutation;
          Alcotest.test_case "copy and split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
    ]
