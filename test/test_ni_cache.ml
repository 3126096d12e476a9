open Utlb
module Pid = Utlb_mem.Pid

let pid0 = Pid.of_int 0

let pid1 = Pid.of_int 1

let direct entries = { Ni_cache.entries; associativity = Ni_cache.Direct }

let test_insert_lookup () =
  let c = Ni_cache.create (direct 64) in
  Alcotest.(check int) "cold miss" (-1)
    (Ni_cache.lookup c ~pid:pid0 ~vpn:5);
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:5 ~frame:99);
  Alcotest.(check int) "hit" 99
    (Ni_cache.lookup c ~pid:pid0 ~vpn:5);
  Alcotest.(check int) "hits" 1 (Ni_cache.hits c);
  Alcotest.(check int) "misses" 1 (Ni_cache.misses c);
  Alcotest.(check int) "valid lines" 1 (Ni_cache.valid_lines c)

let test_pid_tagging () =
  let c = Ni_cache.create (direct 64) in
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:5 ~frame:10);
  Alcotest.(check int) "other pid misses" (-1)
    (Ni_cache.lookup c ~pid:pid1 ~vpn:5)

let test_direct_nohash_conflict () =
  (* Same vpn from two pids: under nohash they share a line; with
     offsetting they do not. *)
  let nohash =
    Ni_cache.create
      { Ni_cache.entries = 64; associativity = Ni_cache.Direct_nohash }
  in
  ignore (Ni_cache.insert nohash ~pid:pid0 ~vpn:5 ~frame:1);
  if not (Ni_cache.insert nohash ~pid:pid1 ~vpn:5 ~frame:2) then
    Alcotest.fail "nohash should conflict";
  Alcotest.(check int) "evicted pid0's line" 0
    (Pid.to_int (Ni_cache.evicted_pid nohash));
  Alcotest.(check int) "evicted vpn" 5 (Ni_cache.evicted_vpn nohash);
  let offset = Ni_cache.create (direct 64) in
  ignore (Ni_cache.insert offset ~pid:pid0 ~vpn:5 ~frame:1);
  Alcotest.(check bool) "offsetting avoids the conflict" true
    (not (Ni_cache.insert offset ~pid:pid1 ~vpn:5 ~frame:2));
  Alcotest.(check int) "both present" 1
    (Ni_cache.lookup offset ~pid:pid0 ~vpn:5)

let test_direct_eviction () =
  let c = Ni_cache.create (direct 16) in
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:3 ~frame:1);
  (* vpn 3+16 maps to the same set in a 16-entry direct cache. *)
  if not (Ni_cache.insert c ~pid:pid0 ~vpn:19 ~frame:2) then
    Alcotest.fail "expected eviction";
  Alcotest.(check int) "evicted vpn" 3 (Ni_cache.evicted_vpn c);
  Alcotest.(check int) "evicted frame" 1 (Ni_cache.evicted_frame c);
  Alcotest.(check int) "evictions" 1 (Ni_cache.evictions c);
  Alcotest.(check int) "still one line" 1 (Ni_cache.valid_lines c)

let test_two_way_avoids_conflict () =
  let c =
    Ni_cache.create { Ni_cache.entries = 32; associativity = Ni_cache.Two_way }
  in
  (* Two pages mapping to the same set coexist in a 2-way cache. *)
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:3 ~frame:1);
  Alcotest.(check bool) "no eviction" true
    (not (Ni_cache.insert c ~pid:pid0 ~vpn:(3 + 16) ~frame:2));
  Alcotest.(check int) "first survives" 1
    (Ni_cache.lookup c ~pid:pid0 ~vpn:3);
  Alcotest.(check int) "second present" 2
    (Ni_cache.lookup c ~pid:pid0 ~vpn:19);
  (* A third conflicting page evicts the set's LRU. *)
  ignore (Ni_cache.lookup c ~pid:pid0 ~vpn:19);
  if not (Ni_cache.insert c ~pid:pid0 ~vpn:(3 + 32) ~frame:3) then
    Alcotest.fail "expected set eviction";
  Alcotest.(check int) "evicts set LRU" 3 (Ni_cache.evicted_vpn c)

let test_refresh_in_place () =
  let c = Ni_cache.create (direct 16) in
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:3 ~frame:1);
  Alcotest.(check bool) "refresh evicts nothing" true
    (not (Ni_cache.insert c ~pid:pid0 ~vpn:3 ~frame:7));
  Alcotest.(check int) "new frame" 7
    (Ni_cache.lookup c ~pid:pid0 ~vpn:3);
  Alcotest.(check int) "one line" 1 (Ni_cache.valid_lines c)

let test_invalidate () =
  let c = Ni_cache.create (direct 16) in
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:3 ~frame:1);
  Alcotest.(check bool) "present" true (Ni_cache.invalidate c ~pid:pid0 ~vpn:3);
  Alcotest.(check bool) "absent" false (Ni_cache.invalidate c ~pid:pid0 ~vpn:3);
  Alcotest.(check int) "no lines" 0 (Ni_cache.valid_lines c)

let test_invalidate_process () =
  let c = Ni_cache.create (direct 64) in
  for vpn = 0 to 9 do
    ignore (Ni_cache.insert c ~pid:pid0 ~vpn ~frame:vpn)
  done;
  ignore (Ni_cache.insert c ~pid:pid1 ~vpn:100 ~frame:1);
  Alcotest.(check int) "dropped pid0 lines" 10
    (Ni_cache.invalidate_process c ~pid:pid0);
  Alcotest.(check int) "pid1 survives" 1 (Ni_cache.valid_lines c)

let test_contains_no_side_effect () =
  let c = Ni_cache.create (direct 16) in
  ignore (Ni_cache.insert c ~pid:pid0 ~vpn:3 ~frame:1);
  let h = Ni_cache.hits c and m = Ni_cache.misses c in
  Alcotest.(check bool) "contains" true (Ni_cache.contains c ~pid:pid0 ~vpn:3);
  Alcotest.(check bool) "not contains" false
    (Ni_cache.contains c ~pid:pid0 ~vpn:4);
  Alcotest.(check int) "hits unchanged" h (Ni_cache.hits c);
  Alcotest.(check int) "misses unchanged" m (Ni_cache.misses c)

let test_probe_cost () =
  let direct_c = Ni_cache.create (direct 64) in
  let four =
    Ni_cache.create { Ni_cache.entries = 64; associativity = Ni_cache.Four_way }
  in
  ignore (Ni_cache.insert direct_c ~pid:pid0 ~vpn:1 ~frame:1);
  ignore (Ni_cache.insert four ~pid:pid0 ~vpn:1 ~frame:1);
  ignore (Ni_cache.lookup direct_c ~pid:pid0 ~vpn:1);
  ignore (Ni_cache.lookup four ~pid:pid0 ~vpn:1);
  Alcotest.(check int) "direct probes once" 1
    (Ni_cache.probe_cost_entries direct_c);
  (* 4-way may need up to 4 probes on a miss in the set. *)
  ignore (Ni_cache.lookup four ~pid:pid0 ~vpn:999);
  Alcotest.(check bool) "assoc probes more" true
    (Ni_cache.probe_cost_entries four > 1)

let test_geometry_validation () =
  Alcotest.check_raises "non power of two sets"
    (Invalid_argument "Ni_cache.create: set count must be a power of two")
    (fun () -> ignore (Ni_cache.create (direct 100)));
  Alcotest.check_raises "entries not multiple of ways"
    (Invalid_argument "Ni_cache.create: entries must be a positive multiple of ways")
    (fun () ->
      ignore
        (Ni_cache.create
           { Ni_cache.entries = 33; associativity = Ni_cache.Two_way }))

let test_size_bytes () =
  let c = Ni_cache.create (direct 8192) in
  Alcotest.(check int) "paper's 32 KB at 8K entries" 32768 (Ni_cache.size_bytes c)

let prop_valid_lines_bounded =
  QCheck.Test.make ~name:"valid lines never exceed capacity" ~count:100
    QCheck.(list (pair (int_bound 1) (int_bound 500)))
    (fun ops ->
      let c = Ni_cache.create (direct 32) in
      List.iter
        (fun (p, vpn) ->
          ignore (Ni_cache.insert c ~pid:(Pid.of_int p) ~vpn ~frame:vpn))
        ops;
      Ni_cache.valid_lines c <= 32)

let prop_lookup_after_insert =
  QCheck.Test.make ~name:"a freshly inserted mapping is a hit" ~count:200
    QCheck.(pair (int_bound 3) (int_bound 100000))
    (fun (p, vpn) ->
      let c = Ni_cache.create (direct 1024) in
      let pid = Pid.of_int p in
      ignore (Ni_cache.insert c ~pid ~vpn ~frame:7);
      Ni_cache.lookup c ~pid ~vpn = 7)

let suite =
  [
    Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
    Alcotest.test_case "pid tagging" `Quick test_pid_tagging;
    Alcotest.test_case "nohash conflicts, offset avoids" `Quick
      test_direct_nohash_conflict;
    Alcotest.test_case "direct eviction" `Quick test_direct_eviction;
    Alcotest.test_case "two-way avoids conflict" `Quick test_two_way_avoids_conflict;
    Alcotest.test_case "refresh in place" `Quick test_refresh_in_place;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "invalidate process" `Quick test_invalidate_process;
    Alcotest.test_case "contains has no side effects" `Quick
      test_contains_no_side_effect;
    Alcotest.test_case "probe cost" `Quick test_probe_cost;
    Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
    Alcotest.test_case "size bytes" `Quick test_size_bytes;
    QCheck_alcotest.to_alcotest prop_valid_lines_bounded;
    QCheck_alcotest.to_alcotest prop_lookup_after_insert;
  ]
