(* Quickstart: the UTLB public API in five minutes.

   Walks through the three layers a user of this library touches:

   1. the raw Hierarchical-UTLB engine (translate buffers, watch pins
      and Shared UTLB-Cache behaviour);
   2. a declarative campaign (a workloads x mechanisms grid run
      domain-parallel, pivoted into a table);
   3. end-to-end VMMC (export a receive buffer, remote-store into it
      through the simulated cluster).

   Run with: dune exec examples/quickstart.exe *)

open Utlb

let section title = Printf.printf "\n== %s ==\n" title

(* 1. Translate buffers through a Hierarchical-UTLB directly. *)
let demo_engine () =
  section "Hierarchical-UTLB engine";
  let engine = Hier_engine.create ~seed:1L Hier_engine.default_config in
  let pid = Utlb_mem.Pid.of_int 0 in
  (* First use of a buffer: user-level check misses, pages are pinned
     on demand, and the NI cache misses (compulsory). *)
  let o1 = Hier_engine.lookup engine ~pid ~vpn:0x400 ~npages:4 in
  Printf.printf
    "first lookup : check_miss=%b pages_pinned=%d ni_misses=%d\n"
    o1.Engine_intf.check_miss o1.Engine_intf.pages_pinned
    o1.Engine_intf.ni_misses;
  (* Second use: everything hits — no system call, no interrupt. *)
  let o2 = Hier_engine.lookup engine ~pid ~vpn:0x400 ~npages:4 in
  Printf.printf
    "second lookup: check_miss=%b pages_pinned=%d ni_misses=%d\n"
    o2.Engine_intf.check_miss o2.Engine_intf.pages_pinned
    o2.Engine_intf.ni_misses;
  Printf.printf "pinned pages now: %d; NI cache lines: %d\n"
    (Hier_engine.pinned_pages engine pid)
    (Ni_cache.valid_lines (Hier_engine.cache engine));
  (* The translation the NI would use (a physical frame number). *)
  match Hier_engine.translate engine ~pid ~vpn:0x401 with
  | Some frame -> Printf.printf "vpn 0x401 -> frame %d\n" frame
  | None -> print_endline "vpn 0x401 unexpectedly untranslated"

(* 2. A declarative campaign on paper workloads. The same grid could be
   a grids/*.grid file run with `utlbsim sweep`. *)
let demo_campaign () =
  section "Campaign: WATER and VOLREND x three mechanism points";
  let module Grid = Utlb_exp.Grid in
  let module Runner = Utlb_exp.Runner in
  let module Emit = Utlb_exp.Emit in
  let grid =
    {
      Grid.name = "quickstart";
      seed = 42L;
      workloads =
        [ Utlb_trace.Workloads.water; Utlb_trace.Workloads.volrend ];
      mechanisms =
        Grid.axes "utlb" [ ("entries", [ "1024"; "4096" ]) ]
        @ [ Grid.mech ~params:[ ("entries", "4096") ] "intr" ];
      tenants = None;
    }
  in
  (* Two domains; the table is byte-identical to a serial run. *)
  let outcomes = Runner.run ~domains:2 grid in
  Emit.matrix ?fmt:None
    ~rows:(fun o -> o.Runner.cell.Grid.workload.Utlb_trace.Workloads.name)
    ~cols:(fun o -> Grid.mech_label o.Runner.cell.Grid.mech)
    ~metrics:
      [
        ("check", fun o -> Report.check_miss_rate o.Runner.report);
        ("NI miss", fun o -> Report.ni_miss_rate o.Runner.report);
        ("unpins", fun o -> Report.unpin_rate o.Runner.report);
      ]
    Format.std_formatter outcomes

(* 3. End-to-end VMMC remote store. *)
let demo_vmmc () =
  section "VMMC remote store across the simulated cluster";
  let open Utlb_vmmc in
  let cluster = Cluster.create () in
  let sender = Cluster.spawn cluster ~node:0 in
  let receiver = Cluster.spawn cluster ~node:1 in
  (* The receiver exports a buffer; exporting pins it. *)
  let export_id, key =
    Cluster.Process.export receiver ~vaddr:0x200000 ~len:8192
  in
  let handle =
    Cluster.Process.import sender ~node:1 ~export_id ~key
  in
  (* The sender fills a local buffer and stores it remotely. *)
  let message = Bytes.of_string "hello through the UTLB" in
  Cluster.Process.write_memory sender ~vaddr:0x100000 message;
  Cluster.Process.send sender handle ~lvaddr:0x100000 ~offset:0
    ~len:(Bytes.length message);
  Cluster.run cluster;
  let received =
    Cluster.Process.read_memory receiver ~vaddr:0x200000
      ~len:(Bytes.length message)
  in
  Printf.printf "received: %S (at t=%.1f us, latency %.1f us)\n"
    (Bytes.to_string received) (Cluster.now_us cluster)
    (Utlb_sim.Stats.Summary.mean (Cluster.send_latency cluster))

let () =
  demo_engine ();
  demo_campaign ();
  demo_vmmc ()
