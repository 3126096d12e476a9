open Utlb
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory

let pid0 = Pid.of_int 0

let pid1 = Pid.of_int 1

let make ?host ?(config = Hier_engine.default_config) () =
  Hier_engine.create ?host ~seed:99L config

let test_first_lookup_pins_and_misses () =
  let e = make () in
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2 in
  Alcotest.(check bool) "check miss" true o.Engine_intf.check_miss;
  Alcotest.(check int) "pinned" 2 o.Engine_intf.pages_pinned;
  Alcotest.(check int) "one ioctl for the contiguous run" 1
    o.Engine_intf.pin_calls;
  Alcotest.(check int) "NI misses" 2 o.Engine_intf.ni_misses;
  Alcotest.(check int) "no unpins" 0 o.Engine_intf.pages_unpinned

let test_second_lookup_all_hits () =
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2 in
  Alcotest.(check bool) "no check miss" false o.Engine_intf.check_miss;
  Alcotest.(check int) "no pins" 0 o.Engine_intf.pages_pinned;
  Alcotest.(check int) "no NI misses" 0 o.Engine_intf.ni_misses

let test_partial_overlap_pins_remainder () =
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:101 ~npages:3 in
  Alcotest.(check bool) "check miss" true o.Engine_intf.check_miss;
  Alcotest.(check int) "only the new pages pinned" 2 o.Engine_intf.pages_pinned;
  Alcotest.(check int) "only the new pages miss" 2 o.Engine_intf.ni_misses

let test_layers_consistent () =
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:50 ~npages:4);
  Alcotest.(check int) "bitvec population" 4 (Hier_engine.pinned_pages e pid0);
  Alcotest.(check int) "host agrees" 4
    (Host_memory.pinned_pages (Hier_engine.host e) pid0);
  Alcotest.(check int) "table agrees" 4
    (Translation_table.valid_entries (Hier_engine.table e pid0));
  Alcotest.(check bool) "translate works" true
    (Hier_engine.translate e ~pid:pid0 ~vpn:52 <> None)

let test_process_isolation () =
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:50 ~npages:1);
  ignore (Hier_engine.lookup e ~pid:pid1 ~vpn:50 ~npages:1);
  let f0 = Option.get (Hier_engine.translate e ~pid:pid0 ~vpn:50) in
  let f1 = Option.get (Hier_engine.translate e ~pid:pid1 ~vpn:50) in
  Alcotest.(check bool) "distinct frames" true (f0 <> f1);
  Alcotest.(check int) "per-process pin accounting" 1
    (Hier_engine.pinned_pages e pid1)

let test_memory_limit_evicts_lru () =
  let config =
    { Hier_engine.default_config with memory_limit_pages = Some 4 }
  in
  let e = make ~config () in
  for vpn = 0 to 3 do
    ignore (Hier_engine.lookup e ~pid:pid0 ~vpn ~npages:1)
  done;
  (* Touch page 0 so page 1 is the LRU. *)
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:1 in
  Alcotest.(check int) "one unpin" 1 o.Engine_intf.pages_unpinned;
  Alcotest.(check int) "limit respected" 4 (Hier_engine.pinned_pages e pid0);
  Alcotest.(check bool) "LRU page 1 went" false
    (Hier_engine.is_pinned e ~pid:pid0 ~vpn:1);
  Alcotest.(check bool) "page 0 kept" true
    (Hier_engine.is_pinned e ~pid:pid0 ~vpn:0);
  (* The unpinned page must be gone from every layer. *)
  Alcotest.(check (option int)) "table invalidated" None
    (Hier_engine.translate e ~pid:pid0 ~vpn:1);
  Alcotest.(check bool) "cache invalidated" false
    (Ni_cache.contains (Hier_engine.cache e) ~pid:pid0 ~vpn:1)

let test_limit_never_unpins_current_request () =
  let config =
    { Hier_engine.default_config with memory_limit_pages = Some 2 }
  in
  let e = make ~config () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:2);
  (* A 2-page request exactly fills the budget; the old pages go, the
     requested pages must survive. *)
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:2);
  Alcotest.(check bool) "requested pinned" true
    (Hier_engine.is_pinned e ~pid:pid0 ~vpn:10);
  Alcotest.(check bool) "requested pinned 2" true
    (Hier_engine.is_pinned e ~pid:pid0 ~vpn:11);
  Alcotest.(check int) "limit" 2 (Hier_engine.pinned_pages e pid0)

let test_prepin () =
  let config = { Hier_engine.default_config with prepin = 8 } in
  let e = make ~config () in
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1 in
  Alcotest.(check int) "prepins 8 pages" 8 o.Engine_intf.pages_pinned;
  (* The pre-pinned neighbours no longer check-miss. *)
  let o2 = Hier_engine.lookup e ~pid:pid0 ~vpn:104 ~npages:1 in
  Alcotest.(check bool) "no check miss" false o2.Engine_intf.check_miss

let test_prefetch_fills_neighbours () =
  let config =
    { Hier_engine.default_config with prefetch = 4; prepin = 4 }
  in
  let e = make ~config () in
  let o1 = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1 in
  Alcotest.(check int) "one miss" 1 o1.Engine_intf.ni_misses;
  Alcotest.(check int) "fetched 4 entries" 4 o1.Engine_intf.entries_fetched;
  (* The neighbours now hit in the NI cache. *)
  let o2 = Hier_engine.lookup e ~pid:pid0 ~vpn:101 ~npages:3 in
  Alcotest.(check int) "prefetched pages hit" 0 o2.Engine_intf.ni_misses

let test_prefetch_skips_unpinned () =
  (* Prefetch without prepin: entries beyond the pinned page hold the
     garbage frame and must not be cached. *)
  let config = { Hier_engine.default_config with prefetch = 4 } in
  let e = make ~config () in
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1 in
  Alcotest.(check int) "only the valid entry cached" 1
    o.Engine_intf.entries_fetched;
  Alcotest.(check bool) "neighbour not cached" false
    (Ni_cache.contains (Hier_engine.cache e) ~pid:pid0 ~vpn:101)

let test_cache_eviction_keeps_translation_alive () =
  (* UTLB's key difference from Intr: an entry evicted from the NI cache
     still translates from the host table with no new pinning. *)
  let config =
    {
      Hier_engine.default_config with
      cache = { Ni_cache.entries = 4; associativity = Ni_cache.Direct };
    }
  in
  let e = make ~config () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  (* Evict vpn 0's line (4-entry direct cache: vpn 4 shares index 0). *)
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:4 ~npages:1);
  Alcotest.(check bool) "cache line gone" false
    (Ni_cache.contains (Hier_engine.cache e) ~pid:pid0 ~vpn:0);
  Alcotest.(check bool) "still pinned" true
    (Hier_engine.is_pinned e ~pid:pid0 ~vpn:0);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1 in
  Alcotest.(check bool) "no re-pin" false o.Engine_intf.check_miss;
  Alcotest.(check int) "NI miss refilled from table" 1 o.Engine_intf.ni_misses;
  Alcotest.(check int) "without pinning" 0 o.Engine_intf.pages_pinned

let test_report_accumulates () =
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:9 ~npages:1);
  let r = Hier_engine.report e ~label:"t" in
  Alcotest.(check int) "lookups" 3 r.Report.lookups;
  Alcotest.(check int) "check misses" 2 r.Report.check_misses;
  Alcotest.(check int) "ni miss lookups" 2 r.Report.ni_miss_lookups;
  Alcotest.(check int) "compulsory" 2 r.Report.compulsory

let test_invalid_npages () =
  let e = make () in
  Alcotest.check_raises "npages 0"
    (Invalid_argument "Hier_engine.lookup: npages must be >= 1") (fun () ->
      ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:0))

let prop_pin_accounting =
  QCheck.Test.make
    ~name:"bitvec, host and table always agree on the pinned set" ~count:60
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 100) (int_range 1 4)))
    (fun lookups ->
      let config =
        { Hier_engine.default_config with memory_limit_pages = Some 16 }
      in
      let e = make ~config () in
      List.iter
        (fun (vpn, npages) ->
          ignore (Hier_engine.lookup e ~pid:pid0 ~vpn ~npages))
        lookups;
      let bitvec = Hier_engine.pinned_pages e pid0 in
      bitvec <= 16 + 4
      && bitvec = Host_memory.pinned_pages (Hier_engine.host e) pid0
      && bitvec = Translation_table.valid_entries (Hier_engine.table e pid0))



let test_swapped_table_interrupt_and_recovery () =
  (* Section 3.3's rare path: a second-level translation table is
     swapped to disk; the next NI access interrupts the host, swaps it
     back, and the lookup still succeeds. *)
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1);
  (* Evict the cache line so the NI must go back to the table. *)
  ignore (Ni_cache.invalidate (Hier_engine.cache e) ~pid:pid0 ~vpn:100);
  Alcotest.(check bool) "table swapped out" true
    (Translation_table.swap_out (Hier_engine.table e pid0) ~dir_index:0
       ~disk_block:42);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1 in
  Alcotest.(check bool) "still no check miss (page pinned)" false
    o.Engine_intf.check_miss;
  Alcotest.(check int) "entry recovered" 1 o.Engine_intf.entries_fetched;
  let r = Hier_engine.report e ~label:"swap" in
  Alcotest.(check int) "one swap interrupt" 1 r.Report.interrupts;
  Alcotest.(check int) "table resident again" 0
    (Translation_table.swapped_tables (Hier_engine.table e pid0));
  (* Subsequent lookups are back on the fast path. *)
  let o2 = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1 in
  Alcotest.(check int) "cache hit" 0 o2.Engine_intf.ni_misses

let test_remove_process_releases_everything () =
  let e = make () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:5);
  ignore (Hier_engine.lookup e ~pid:pid1 ~vpn:10 ~npages:2);
  Alcotest.(check int) "releases pid0's pages" 5
    (Hier_engine.remove_process e pid0);
  Alcotest.(check int) "unknown afterwards" 0 (Hier_engine.remove_process e pid0);
  Alcotest.(check int) "pid1 untouched" 2 (Hier_engine.pinned_pages e pid1);
  Alcotest.(check int) "host released pid0" 0
    (Utlb_mem.Host_memory.pinned_pages (Hier_engine.host e) pid0);
  Alcotest.(check bool) "cache lines dropped" false
    (Ni_cache.contains (Hier_engine.cache e) ~pid:pid0 ~vpn:10)

let suite =
  [
    Alcotest.test_case "first lookup pins and misses" `Quick
      test_first_lookup_pins_and_misses;
    Alcotest.test_case "second lookup hits" `Quick test_second_lookup_all_hits;
    Alcotest.test_case "partial overlap" `Quick test_partial_overlap_pins_remainder;
    Alcotest.test_case "layers consistent" `Quick test_layers_consistent;
    Alcotest.test_case "process isolation" `Quick test_process_isolation;
    Alcotest.test_case "memory limit evicts LRU" `Quick test_memory_limit_evicts_lru;
    Alcotest.test_case "limit protects current request" `Quick
      test_limit_never_unpins_current_request;
    Alcotest.test_case "prepin" `Quick test_prepin;
    Alcotest.test_case "prefetch fills neighbours" `Quick
      test_prefetch_fills_neighbours;
    Alcotest.test_case "prefetch skips unpinned" `Quick test_prefetch_skips_unpinned;
    Alcotest.test_case "eviction keeps translation alive" `Quick
      test_cache_eviction_keeps_translation_alive;
    Alcotest.test_case "report accumulates" `Quick test_report_accumulates;
    Alcotest.test_case "invalid npages" `Quick test_invalid_npages;
    QCheck_alcotest.to_alcotest prop_pin_accounting;
    Alcotest.test_case "swapped table interrupt" `Quick
      test_swapped_table_interrupt_and_recovery;
    Alcotest.test_case "remove process" `Quick
      test_remove_process_releases_everything;
  ]
