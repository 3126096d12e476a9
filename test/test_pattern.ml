open Utlb_trace
module Rng = Utlb_sim.Rng

let rng () = Rng.create ~seed:3L

let pages_of accs =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a : Pattern.access) ->
      for i = 0 to a.npages - 1 do
        Hashtbl.replace seen (a.rel_page + i) ()
      done)
    accs;
  Hashtbl.length seen

let test_sequential () =
  let p = Pattern.sequential ~pages:10 () in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check int) "ten accesses" 10 (List.length accs);
  Alcotest.(check (list int)) "in order"
    (List.init 10 Fun.id)
    (List.map (fun (a : Pattern.access) -> a.rel_page) accs)

let test_sequential_multi_page () =
  let p = Pattern.sequential ~npages:4 ~pages:10 () in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check int) "three buffers" 3 (List.length accs);
  (* The last buffer is clamped to the partition end. *)
  let last = List.nth accs 2 in
  Alcotest.(check int) "clamped" 2 last.Pattern.npages;
  Alcotest.(check int) "full coverage" 10 (pages_of accs)

let test_strided_covers_all () =
  let p = Pattern.strided ~stride:7 ~pages:100 () in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check int) "covers the partition" 100 (pages_of accs);
  Alcotest.(check int) "once each" 100 (List.length accs)

let test_strided_pairs () =
  let p = Pattern.strided ~pairs:true ~pages:50 () in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check int) "two per page" 100 (List.length accs);
  (* Consecutive accesses form pairs on the same page. *)
  let rec pairs_ok = function
    | (a : Pattern.access) :: b :: rest ->
      a.Pattern.rel_page = b.Pattern.rel_page && pairs_ok rest
    | [] -> true
    | [ _ ] -> false
  in
  Alcotest.(check bool) "paired" true (pairs_ok accs)

let test_cyclic () =
  let p = Pattern.cyclic ~passes:3 ~pages:20 () in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check int) "three passes" 60 (List.length accs);
  Alcotest.(check int) "coverage" 20 (pages_of accs)

let test_hot_cold_bias () =
  let p = Pattern.hot_cold ~hot_fraction:0.1 ~hot_bias:0.9 ~lookups:5000 ~pages:1000 in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check int) "lookup count" 5000 (List.length accs);
  (* Count accesses per page; the top decile should absorb most. *)
  let counts = Hashtbl.create 256 in
  List.iter
    (fun (a : Pattern.access) ->
      Hashtbl.replace counts a.Pattern.rel_page
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts a.Pattern.rel_page)))
    accs;
  let sorted =
    Hashtbl.fold (fun _ c acc -> c :: acc) counts [] |> List.sort (fun a b -> compare b a)
  in
  let top100 = List.filteri (fun i _ -> i < 100) sorted in
  let hot_share =
    float_of_int (List.fold_left ( + ) 0 top100) /. 5000.0
  in
  Alcotest.(check bool) "top decile takes most accesses" true (hot_share > 0.8)

let test_uniform_random_bounds () =
  let p = Pattern.uniform_random ~lookups:2000 ~pages:50 () in
  let accs = Pattern.accesses p (rng ()) in
  Alcotest.(check bool) "in bounds" true
    (List.for_all
       (fun (a : Pattern.access) ->
         a.Pattern.rel_page >= 0 && a.Pattern.rel_page + a.Pattern.npages <= 50)
       accs)

let test_concat_repeat () =
  let p =
    Pattern.concat
      [ Pattern.sequential ~pages:5 (); Pattern.sequential ~pages:3 () ]
  in
  Alcotest.(check int) "pages is max" 5 (Pattern.pages p);
  Alcotest.(check int) "accesses concatenated" 8
    (List.length (Pattern.accesses p (rng ())));
  let r = Pattern.repeat 3 (Pattern.sequential ~pages:4 ()) in
  Alcotest.(check int) "repeated" 12 (List.length (Pattern.accesses r (rng ())))

let test_mix () =
  let p =
    Pattern.mix
      [ (0.5, Pattern.sequential ~pages:10 ());
        (0.5, Pattern.uniform_random ~lookups:10 ~pages:10 ()) ]
      ~lookups:400
  in
  Alcotest.(check int) "mix length" 400 (List.length (Pattern.accesses p (rng ())))

let test_validation () =
  Alcotest.check_raises "pages 0" (Invalid_argument "Pattern: pages must be positive")
    (fun () -> ignore (Pattern.sequential ~pages:0 ()));
  Alcotest.check_raises "empty concat"
    (Invalid_argument "Pattern.concat: empty list") (fun () ->
      ignore (Pattern.concat []));
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Pattern.hot_cold: hot_fraction must be in (0, 1)")
    (fun () ->
      ignore (Pattern.hot_cold ~hot_fraction:1.5 ~hot_bias:0.5 ~lookups:1 ~pages:1))

let test_to_trace_layout () =
  let p = Pattern.cyclic ~passes:1 ~pages:100 () in
  let trace = Pattern.to_trace ~seed:1L p in
  (* Four app processes plus the protocol mirror process. *)
  Alcotest.(check int) "five pids" 5 (List.length (Trace.pids trace));
  (* SPMD aliasing: per-process bases congruent mod 16384. *)
  let mins = Hashtbl.create 8 in
  Trace.iter trace (fun r ->
      let pid = Utlb_mem.Pid.to_int r.Record.pid in
      if pid < 4 then
        let cur = Option.value ~default:max_int (Hashtbl.find_opt mins pid) in
        if r.Record.vpn < cur then Hashtbl.replace mins pid r.Record.vpn);
  let base = Hashtbl.find mins 0 mod 16384 in
  for pid = 1 to 3 do
    Alcotest.(check int) "aliased" base (Hashtbl.find mins pid mod 16384)
  done

let test_trace_runs_through_simulator () =
  let p =
    Pattern.mix
      [ (0.7, Pattern.cyclic ~passes:4 ~pages:1500 ());
        (0.3, Pattern.uniform_random ~lookups:1000 ~pages:1500 ()) ]
      ~lookups:6000
  in
  let trace = Pattern.to_trace ~seed:5L p in
  let r =
    Utlb.Sim_driver.run_packed
      (Utlb.Sim_driver.Packed
         ((module Utlb.Hier_engine), Utlb.Hier_engine.default_config))
      trace
  in
  Alcotest.(check int) "all lookups simulated" (Trace.length trace)
    r.Utlb.Report.lookups;
  Alcotest.(check bool) "no unpins (infinite memory)" true
    (r.Utlb.Report.pages_unpinned = 0)

let prop_deterministic =
  QCheck.Test.make ~name:"pattern generation is deterministic" ~count:50
    QCheck.(pair (int_range 1 200) small_int)
    (fun (pages, seed) ->
      let p = Pattern.cyclic ~passes:2 ~pages () in
      let a = Pattern.accesses p (Rng.create ~seed:(Int64.of_int seed)) in
      let b = Pattern.accesses p (Rng.create ~seed:(Int64.of_int seed)) in
      a = b)

let suite =
  [
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "sequential multi-page" `Quick test_sequential_multi_page;
    Alcotest.test_case "strided covers all" `Quick test_strided_covers_all;
    Alcotest.test_case "strided pairs" `Quick test_strided_pairs;
    Alcotest.test_case "cyclic" `Quick test_cyclic;
    Alcotest.test_case "hot/cold bias" `Quick test_hot_cold_bias;
    Alcotest.test_case "uniform random bounds" `Quick test_uniform_random_bounds;
    Alcotest.test_case "concat/repeat" `Quick test_concat_repeat;
    Alcotest.test_case "mix" `Quick test_mix;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "to_trace layout" `Quick test_to_trace_layout;
    Alcotest.test_case "runs through simulator" `Quick
      test_trace_runs_through_simulator;
    QCheck_alcotest.to_alcotest prop_deterministic;
  ]
