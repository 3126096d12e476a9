open Utlb
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory

let pid0 = Pid.of_int 0

let make ?(config = Intr_engine.default_config) () =
  Intr_engine.create ~seed:5L config

let small_cache entries =
  {
    Intr_engine.cache = { Ni_cache.entries; associativity = Ni_cache.Direct };
    memory_limit_pages = None;
  }

let test_miss_interrupts_and_pins () =
  let e = make () in
  let o = Intr_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:2 in
  Alcotest.(check int) "two misses" 2 o.Engine_intf.ni_misses;
  Alcotest.(check int) "one interrupt per miss" 2 o.Engine_intf.interrupts;
  Alcotest.(check int) "pinned" 2 o.Engine_intf.pages_pinned;
  let o2 = Intr_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:2 in
  Alcotest.(check int) "hits need no interrupt" 0 o2.Engine_intf.interrupts

let test_eviction_unpins () =
  (* The defining behaviour: a cache eviction unpins the evicted page. *)
  let e = make ~config:(small_cache 4) () in
  ignore (Intr_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  Alcotest.(check int) "pinned" 1 (Intr_engine.pinned_pages e pid0);
  (* vpn 4 conflicts with vpn 0 in a 4-entry direct cache. *)
  let o = Intr_engine.lookup e ~pid:pid0 ~vpn:4 ~npages:1 in
  Alcotest.(check int) "eviction unpinned" 1 o.Engine_intf.pages_unpinned;
  Alcotest.(check int) "pinned stays 1" 1 (Intr_engine.pinned_pages e pid0);
  Alcotest.(check int) "host agrees" 1
    (Host_memory.pinned_pages (Intr_engine.host e) pid0);
  (* Returning to vpn 0 is a fresh miss + interrupt + pin. *)
  let o2 = Intr_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1 in
  Alcotest.(check int) "re-interrupt" 1 o2.Engine_intf.interrupts;
  Alcotest.(check int) "re-pin" 1 o2.Engine_intf.pages_pinned

let test_memory_limit () =
  let config =
    {
      Intr_engine.cache =
        { Ni_cache.entries = 1024; associativity = Ni_cache.Direct };
      memory_limit_pages = Some 3;
    }
  in
  let e = make ~config () in
  for vpn = 0 to 9 do
    ignore (Intr_engine.lookup e ~pid:pid0 ~vpn ~npages:1)
  done;
  Alcotest.(check int) "limit respected" 3 (Intr_engine.pinned_pages e pid0);
  Alcotest.(check int) "host agrees" 3
    (Host_memory.pinned_pages (Intr_engine.host e) pid0)

let test_report () =
  let e = make ~config:(small_cache 4) () in
  ignore (Intr_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  ignore (Intr_engine.lookup e ~pid:pid0 ~vpn:4 ~npages:1);
  ignore (Intr_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  let r = Intr_engine.report e ~label:"intr" in
  Alcotest.(check int) "lookups" 3 r.Report.lookups;
  Alcotest.(check int) "interrupts" 3 r.Report.interrupts;
  Alcotest.(check int) "no check misses ever" 0 r.Report.check_misses;
  Alcotest.(check int) "unpins" 2 r.Report.pages_unpinned

let prop_pinned_equals_cached =
  QCheck.Test.make
    ~name:"Intr invariant: pinned set = cached translations" ~count:60
    QCheck.(list_of_size Gen.(1 -- 60) (int_bound 50))
    (fun vpns ->
      let e = make ~config:(small_cache 16) () in
      List.iter (fun vpn -> ignore (Intr_engine.lookup e ~pid:pid0 ~vpn ~npages:1)) vpns;
      let cache = Intr_engine.cache e in
      Intr_engine.pinned_pages e pid0 = Ni_cache.valid_lines cache)

let suite =
  [
    Alcotest.test_case "miss interrupts and pins" `Quick
      test_miss_interrupts_and_pins;
    Alcotest.test_case "eviction unpins" `Quick test_eviction_unpins;
    Alcotest.test_case "memory limit" `Quick test_memory_limit;
    Alcotest.test_case "report" `Quick test_report;
    QCheck_alcotest.to_alcotest prop_pinned_equals_cached;
  ]
