open Utlb_trace
module Pid = Utlb_mem.Pid

let rec_ ?(t = 0.0) ?(pid = 0) ?(npages = 1) vpn =
  Record.make ~time_us:t ~pid:(Pid.of_int pid) ~vpn ~npages ~op:Record.Send

let trace_of vpns =
  Trace.of_records
    (Array.of_list (List.mapi (fun i v -> rec_ ~t:(float_of_int i) v) vpns))

let test_all_cold () =
  let h = Analysis.reuse_distances (trace_of [ 1; 2; 3; 4 ]) in
  Alcotest.(check int) "total" 4 h.Analysis.total;
  Alcotest.(check int) "all cold" 4 h.Analysis.cold

let test_immediate_reuse () =
  (* 1 1 1: two reuses at distance 0. *)
  let h = Analysis.reuse_distances (trace_of [ 1; 1; 1 ]) in
  Alcotest.(check int) "cold" 1 h.Analysis.cold;
  let bound, count = h.Analysis.buckets.(0) in
  Alcotest.(check int) "bucket bound 1" 1 bound;
  Alcotest.(check int) "two zero-distance reuses" 2 count

let test_stack_distance () =
  (* 1 2 3 1: the reuse of 1 has seen 2 distinct pages since. *)
  let h = Analysis.reuse_distances (trace_of [ 1; 2; 3; 1 ]) in
  Alcotest.(check int) "cold" 3 h.Analysis.cold;
  (* distance 2 lands in bucket "< 4". *)
  let _, c4 = h.Analysis.buckets.(2) in
  Alcotest.(check int) "distance-2 reuse" 1 c4

let test_duplicates_dont_inflate_distance () =
  (* 1 2 2 2 1: page 1's reuse distance is 1 (only page 2 between). *)
  let h = Analysis.reuse_distances (trace_of [ 1; 2; 2; 2; 1 ]) in
  let _, c2 = h.Analysis.buckets.(1) in
  (* bucket "< 2" holds exactly distance-1 reuses *)
  Alcotest.(check int) "distance 1 once" 1 c2

let test_per_pid_separation () =
  (* Same vpn from different pids are distinct cache entries. *)
  let records =
    [ rec_ ~pid:0 5; rec_ ~t:1.0 ~pid:1 5; rec_ ~t:2.0 ~pid:0 5 ]
  in
  let h = Analysis.reuse_distances (Trace.of_records (Array.of_list records)) in
  Alcotest.(check int) "two cold" 2 h.Analysis.cold;
  (* pid 0's reuse saw only pid 1's access of a different (pid,page):
     distance 1. *)
  let _, c2 = h.Analysis.buckets.(1) in
  Alcotest.(check int) "cross-pid counted as distinct" 1 c2

let test_multi_page_records () =
  let t = Trace.of_records [| rec_ ~npages:3 10; rec_ ~t:1.0 ~npages:3 10 |] in
  let h = Analysis.reuse_distances t in
  Alcotest.(check int) "six accesses" 6 h.Analysis.total;
  Alcotest.(check int) "three cold" 3 h.Analysis.cold

let test_hit_ratio () =
  let h = Analysis.reuse_distances (trace_of [ 1; 2; 3; 1; 2; 3; 1; 2; 3 ]) in
  (* 6 reuses at distance 2: hit with >= 4 entries, miss with 2. *)
  Alcotest.(check (float 1e-9)) "big cache" (6.0 /. 9.0)
    (Analysis.hit_ratio_at h ~entries:4);
  Alcotest.(check (float 1e-9)) "tiny cache" 0.0
    (Analysis.hit_ratio_at h ~entries:2)

let test_summary () =
  let t =
    Trace.of_records
      [| rec_ ~pid:0 ~npages:2 10; rec_ ~t:1.0 ~pid:1 20; rec_ ~t:2.0 ~pid:0 10 |]
  in
  let s = Analysis.summarize t in
  Alcotest.(check int) "lookups" 3 s.Analysis.lookups;
  Alcotest.(check int) "accesses" 4 s.Analysis.page_accesses;
  Alcotest.(check int) "footprint" 3 s.Analysis.footprint;
  Alcotest.(check (float 1e-6)) "mean npages" (4.0 /. 3.0) s.Analysis.mean_npages;
  Alcotest.(check (list (pair int int)))
    "npages histogram" [ (1, 2); (2, 1) ] s.Analysis.npages_histogram

let test_workload_hit_bound_matches_cache () =
  (* The fully-associative LRU bound must upper-bound the measured
     direct-mapped hit ratio at the same entry count. *)
  let spec = Workloads.volrend in
  let trace = spec.Workloads.generate ~seed:42L in
  let h = Analysis.reuse_distances trace in
  let bound = Analysis.hit_ratio_at h ~entries:4096 in
  let r =
    Utlb.Sim_driver.run_packed ~seed:42L
      (Utlb.Sim_driver.Packed
         ( (module Utlb.Hier_engine),
           {
             Utlb.Hier_engine.default_config with
             cache =
               {
                 Utlb.Ni_cache.entries = 4096;
                 associativity = Utlb.Ni_cache.Direct;
               };
           } ))
      trace
  in
  let measured_hit =
    1.0
    -. float_of_int r.Utlb.Report.ni_page_misses
       /. float_of_int r.Utlb.Report.ni_page_accesses
  in
  Alcotest.(check bool) "LRU bound dominates direct-mapped" true
    (bound +. 0.02 >= measured_hit)

let suite =
  [
    Alcotest.test_case "all cold" `Quick test_all_cold;
    Alcotest.test_case "immediate reuse" `Quick test_immediate_reuse;
    Alcotest.test_case "stack distance" `Quick test_stack_distance;
    Alcotest.test_case "duplicates don't inflate" `Quick
      test_duplicates_dont_inflate_distance;
    Alcotest.test_case "per-pid separation" `Quick test_per_pid_separation;
    Alcotest.test_case "multi-page records" `Quick test_multi_page_records;
    Alcotest.test_case "hit ratio" `Quick test_hit_ratio;
    Alcotest.test_case "summary" `Quick test_summary;
    Alcotest.test_case "LRU bound vs measured cache" `Slow
      test_workload_hit_bound_matches_cache;
  ]
