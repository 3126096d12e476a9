open Utlb_sim

let test_determinism () =
  let a = Rng.create ~seed:1234L and b = Rng.create ~seed:1234L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next_int64 a) (Rng.next_int64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_split_independence () =
  let parent = Rng.create ~seed:7L in
  let child = Rng.split parent in
  let c1 = Rng.next_int64 child and p1 = Rng.next_int64 parent in
  Alcotest.(check bool) "child differs from parent" true (c1 <> p1)

let test_copy () =
  let a = Rng.create ~seed:9L in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_int_bounds_invalid () =
  let rng = Rng.create ~seed:5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_geometric_invalid () =
  let rng = Rng.create ~seed:5L in
  Alcotest.check_raises "bad p"
    (Invalid_argument "Rng.geometric: p must be in (0, 1]") (fun () ->
      ignore (Rng.geometric rng ~p:0.0))

let test_pick_empty () =
  let rng = Rng.create ~seed:5L in
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:21L in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 (fun i -> i))
    sorted

(* The first eight draws of each kind from a fresh generator, as
   literals: a change to the generator's arithmetic or state layout
   that moves any stream fails here, where comparing two runs of the
   same build cannot see it. *)
let pinned =
  [
    ( 1234L,
      [ -4968325692281840421L; -7509856599009106652L; 3728693401281897946L;
        5648149391703318579L; -5110771941603457627L; -5710649408451599087L;
        9136733345333910430L; 4199148429166567583L ],
      [ 936159; 226278; 626122; 988333; 860532; 290632; 52391; 536154 ],
      [ 0x1.7619ec365e303p-1; 0x1.2f8f426c9be0cp-1; 0x1.9df7d724de01p-3;
        0x1.398907c94b428p-2; 0x1.7225c7fe89628p-1; 0x1.617f653d18e54p-1;
        0x1.fb30ca46c0606p-2; 0x1.d232f9fc7ce7p-3 ],
      [ true; false; false; true; true; true; false; true ] );
    ( 0x5EED_CAFEL,
      [ 4839992929902016533L; -5749855478143838530L; -2499282993978686212L;
        3115517747291210547L; -1460459064231100383L; 8225877385692463310L;
        6065135524253103467L; -2824135168967517471L ],
      [ 393317; 99022; 576467; 4124; 149452; 169454; 558383; 961491 ],
      [ 0x1.0cac6fb498d8ep-2; 0x1.6068d1d036ce2p-1; 0x1.baa186b7ad738p-1;
        0x1.59e4571355bep-3; 0x1.d776d0701703p-1; 0x1.c8a0bf995079p-2;
        0x1.50aec27fd6d5cp-2; 0x1.b19d500db001bp-1 ],
      [ true; false; false; true; true; false; true; true ] );
  ]

let test_pinned_streams () =
  List.iter
    (fun (seed, raw, ints, floats, bools) ->
      let draws f =
        let rng = Rng.create ~seed in
        List.init 8 (fun _ -> f rng)
      in
      let name kind = Printf.sprintf "seed %Ld: %s" seed kind in
      Alcotest.(check (list int64)) (name "next_int64") raw (draws Rng.next_int64);
      Alcotest.(check (list int)) (name "int 1_000_003") ints
        (draws (fun rng -> Rng.int rng 1_000_003));
      Alcotest.(check (list int64)) (name "float 1.0 bits")
        (List.map Int64.bits_of_float floats)
        (List.map Int64.bits_of_float (draws (fun rng -> Rng.float rng 1.0)));
      Alcotest.(check (list bool)) (name "bool") bools (draws Rng.bool))
    pinned

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays within bounds" ~count:500
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Rng.float stays within bounds" ~count:500
    QCheck.small_int (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.float rng 3.5 in
      v >= 0.0 && v < 3.5)

let prop_geometric_nonneg =
  QCheck.Test.make ~name:"Rng.geometric is non-negative" ~count:300
    QCheck.(pair small_int (float_range 0.05 1.0))
    (fun (seed, p) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      Rng.geometric rng ~p >= 0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "int invalid bound" `Quick test_int_bounds_invalid;
    Alcotest.test_case "geometric invalid p" `Quick test_geometric_invalid;
    Alcotest.test_case "pick empty" `Quick test_pick_empty;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "pinned first draws" `Quick test_pinned_streams;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_float_in_bounds;
    QCheck_alcotest.to_alcotest prop_geometric_nonneg;
  ]
