open Utlb
module Pid = Utlb_mem.Pid

let pid0 = Pid.of_int 0

let pid1 = Pid.of_int 1

let make ?(budget = 16) ?(processes = 2) () =
  Pp_engine.create ~seed:7L
    {
      Pp_engine.sram_budget_entries = budget;
      processes;
      policy = Replacement.Lru;
    }

let test_budget_split () =
  let e = make ~budget:16 ~processes:2 () in
  Alcotest.(check int) "entries per process" 8
    (Pp_engine.table_entries_per_process e)

let test_basic_lookup () =
  let e = make () in
  let o = Pp_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:2 in
  Alcotest.(check bool) "check miss" true o.Engine_intf.check_miss;
  Alcotest.(check int) "pinned" 2 o.Engine_intf.pages_pinned;
  let o2 = Pp_engine.lookup e ~pid:pid0 ~vpn:10 ~npages:2 in
  Alcotest.(check bool) "hit" false o2.Engine_intf.check_miss;
  Alcotest.(check int) "occupancy" 2 (Pp_engine.occupancy e pid0)

let test_static_partitioning_forces_unpins () =
  (* 8 entries per process: a 12-page working set evicts even though
     the other process's table sits empty — the Section 3.2 drawback. *)
  let e = make ~budget:16 ~processes:2 () in
  for vpn = 0 to 11 do
    ignore (Pp_engine.lookup e ~pid:pid0 ~vpn ~npages:1)
  done;
  let r = Pp_engine.report e ~label:"pp" in
  Alcotest.(check int) "table capped" 8 (Pp_engine.occupancy e pid0);
  Alcotest.(check int) "unpins forced" 4 r.Report.pages_unpinned;
  Alcotest.(check int) "other table untouched" 0 (Pp_engine.occupancy e pid1)

let test_too_many_processes_rejected () =
  let e = make ~budget:16 ~processes:1 () in
  ignore (Pp_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:1);
  Alcotest.check_raises "second process"
    (Invalid_argument "Pp_engine: more processes than allocated tables")
    (fun () -> ignore (Pp_engine.lookup e ~pid:pid1 ~vpn:0 ~npages:1))

let test_no_ni_misses_ever () =
  let e = make ~budget:64 ~processes:2 () in
  for vpn = 0 to 40 do
    ignore (Pp_engine.lookup e ~pid:pid0 ~vpn ~npages:1)
  done;
  let r = Pp_engine.report e ~label:"pp" in
  Alcotest.(check int) "direct table indexing never misses" 0
    r.Report.ni_page_misses

let test_vs_shared_on_fft () =
  (* The extension experiment's headline in miniature: on FFT, shared
     caching of host-resident tables avoids the unpins that per-process
     static tables force. *)
  let spec = Utlb_trace.Workloads.fft in
  let pp =
    Sim_driver.run_workload ~seed:42L
      (Sim_driver.Packed ((module Pp_engine), Pp_engine.default_config))
      spec
  in
  let shared =
    Sim_driver.run_workload ~seed:42L
      (Sim_driver.Packed ((module Hier_engine), Hier_engine.default_config))
      spec
  in
  Alcotest.(check bool) "per-process unpins" true
    (Report.unpin_rate pp > 0.1);
  Alcotest.(check (float 1e-9)) "shared never unpins" 0.0
    (Report.unpin_rate shared)

let suite =
  [
    Alcotest.test_case "budget split" `Quick test_budget_split;
    Alcotest.test_case "basic lookup" `Quick test_basic_lookup;
    Alcotest.test_case "static partitioning forces unpins" `Quick
      test_static_partitioning_forces_unpins;
    Alcotest.test_case "too many processes" `Quick test_too_many_processes_rejected;
    Alcotest.test_case "no NI misses" `Quick test_no_ni_misses_ever;
    Alcotest.test_case "per-process vs shared on FFT" `Slow test_vs_shared_on_fft;
  ]
