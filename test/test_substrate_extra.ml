(* Additional substrate coverage: counters, pretty-printers, and
   behaviours not exercised by the main per-module suites. *)

module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine
module Rng = Utlb_sim.Rng
open Utlb_net

let test_time_pp () =
  Alcotest.(check string) "pp" "12.500us"
    (Format.asprintf "%a" Time.pp (Time.of_us 12.5));
  Alcotest.(check int) "max" (Time.of_us 2.0)
    (Time.max (Time.of_us 1.0) (Time.of_us 2.0))

let test_link_corruption_counter () =
  let e = Engine.create () in
  let intact = ref 0 and corrupted = ref 0 in
  let link =
    Link.create
      ~faults:{ Link.no_faults with corrupt_probability = 0.5 }
      ~rng:(Rng.create ~seed:3L)
      ~sink:(fun p -> if Packet.intact p then incr intact else incr corrupted)
      e
  in
  for _ = 1 to 100 do
    Link.transmit link
      (Packet.make ~src:0 ~dst:1 ~chan:0 ~seq:0 ~kind:Packet.Data ~route:[]
         ~payload:(Bytes.of_string "payload"))
  done;
  Engine.run e;
  Alcotest.(check int) "all delivered" 100 (!intact + !corrupted);
  Alcotest.(check int) "counter matches observation" !corrupted
    (Link.corrupted link);
  Alcotest.(check bool) "both outcomes occurred" true
    (!intact > 10 && !corrupted > 10);
  Alcotest.(check bool) "bytes accounted" true (Link.bytes_sent link > 0)

let test_fabric_dropped_counter () =
  let e = Engine.create () in
  let fabric =
    Fabric.create
      ~faults:{ Link.no_faults with drop_probability = 0.4 }
      ~rng:(Rng.create ~seed:4L) ~nodes:2 e
  in
  Fabric.attach fabric ~node:1 ignore;
  for _ = 1 to 100 do
    Fabric.send fabric ~src:0 ~dst:1 ~chan:0 ~seq:0 ~kind:Packet.Data
      ~payload:Bytes.empty
  done;
  Engine.run e;
  Alcotest.(check bool) "drops counted" true (Fabric.dropped fabric > 10);
  Alcotest.(check int) "conservation" 100
    (Fabric.delivered fabric + Fabric.dropped fabric)

let test_io_bus_counters () =
  let e = Engine.create () in
  let bus = Utlb_nic.Io_bus.create e in
  Utlb_nic.Io_bus.submit bus ~cost:(Time.of_us 5.0) (fun () -> ());
  Utlb_nic.Io_bus.submit bus ~cost:(Time.of_us 5.0) (fun () -> ());
  Alcotest.(check int) "transactions" 2 (Utlb_nic.Io_bus.transactions bus);
  Alcotest.(check (float 1e-6)) "busy until serialised" 10.0
    (Time.to_us (Utlb_nic.Io_bus.busy_until bus));
  Engine.run e

let test_mcp_busy_flag () =
  let e = Engine.create () in
  let nic = Utlb_nic.Nic.create e in
  let ring =
    Utlb_nic.Nic.new_command_queue nic ~pid:(Utlb_mem.Pid.of_int 0) ~slots:2
  in
  Utlb_nic.Mcp.set_handler (Utlb_nic.Nic.mcp nic) (fun ~pid:_ _ -> ());
  ignore (Utlb_nic.Command_queue.post ring Utlb_nic.Command_queue.Noop);
  Utlb_nic.Mcp.kick (Utlb_nic.Nic.mcp nic);
  Alcotest.(check bool) "busy after kick" true
    (Utlb_nic.Mcp.busy (Utlb_nic.Nic.mcp nic));
  Engine.run e;
  Alcotest.(check bool) "idle when drained" false
    (Utlb_nic.Mcp.busy (Utlb_nic.Nic.mcp nic))

let test_host_memory_counters () =
  let host = Utlb_mem.Host_memory.create ~frames:32 () in
  let pid = Utlb_mem.Pid.of_int 0 in
  Utlb_mem.Host_memory.add_process host pid;
  ignore (Utlb_mem.Host_memory.pin host pid ~vpn:0 ~count:4);
  Utlb_mem.Host_memory.unpin host pid ~vpn:0 ~count:4;
  Alcotest.(check int) "faults" 4 (Utlb_mem.Host_memory.faults host);
  Alcotest.(check int) "resident" 4 (Utlb_mem.Host_memory.resident_pages host pid);
  Alcotest.(check int) "free frames" (31 - 4)
    (Utlb_mem.Host_memory.free_frames host);
  Utlb_mem.Host_memory.reset_counters host;
  Alcotest.(check int) "counters reset" 0 (Utlb_mem.Host_memory.pin_calls host);
  Alcotest.(check bool) "process presence" true
    (Utlb_mem.Host_memory.has_process host pid)

let test_sram_byte_range_errors () =
  let sram = Utlb_nic.Sram.create ~bytes:128 () in
  let r = Utlb_nic.Sram.alloc sram ~name:"r" ~length:32 in
  Alcotest.check_raises "byte overflow"
    (Invalid_argument "Sram: byte range out of region bounds") (fun () ->
      ignore (Utlb_nic.Sram.read_bytes sram r ~off:30 ~len:4));
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Sram: byte range out of region bounds") (fun () ->
      Utlb_nic.Sram.write_bytes sram r ~off:(-1) (Bytes.create 2))

let test_report_pp_smoke () =
  let r =
    {
      (Utlb.Report.empty ~label:"smoke") with
      Utlb.Report.lookups = 10;
      check_misses = 2;
    }
  in
  let s = Format.asprintf "%a" Utlb.Report.pp r in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions label" true (contains s "smoke");
  Alcotest.(check bool) "mentions lookups" true (contains s "lookups=10")

let test_engine_pending_counter () =
  let e = Engine.create () in
  let a = Engine.schedule e ~delay:(Time.of_us 1.0) (fun () -> ()) in
  ignore (Engine.schedule e ~delay:(Time.of_us 2.0) (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Engine.pending e);
  Engine.cancel e a;
  Alcotest.(check int) "one after cancel" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "zero after run" 0 (Engine.pending e)

let test_pattern_mix_zero_weight () =
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Pattern.mix: weights must be positive") (fun () ->
      ignore
        (Utlb_trace.Pattern.mix
           [ (0.0, Utlb_trace.Pattern.sequential ~pages:4 ()) ]
           ~lookups:10))

let test_analysis_bound_every_app () =
  (* The fully-associative bound must dominate the measured direct-mapped
     hit ratio for every calibrated workload. *)
  List.iter
    (fun (spec : Utlb_trace.Workloads.spec) ->
      let trace = spec.generate ~seed:42L in
      let hist = Utlb_trace.Analysis.reuse_distances trace in
      let bound = Utlb_trace.Analysis.hit_ratio_at hist ~entries:4096 in
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
      let measured =
        1.0
        -. float_of_int r.Utlb.Report.ni_page_misses
           /. float_of_int r.Utlb.Report.ni_page_accesses
      in
      Alcotest.(check bool)
        (spec.name ^ ": LRU bound dominates")
        true
        (bound +. 0.02 >= measured))
    Utlb_trace.Workloads.all

let suite =
  [
    Alcotest.test_case "time pp" `Quick test_time_pp;
    Alcotest.test_case "link corruption counter" `Quick
      test_link_corruption_counter;
    Alcotest.test_case "fabric dropped counter" `Quick test_fabric_dropped_counter;
    Alcotest.test_case "io bus counters" `Quick test_io_bus_counters;
    Alcotest.test_case "mcp busy flag" `Quick test_mcp_busy_flag;
    Alcotest.test_case "host memory counters" `Quick test_host_memory_counters;
    Alcotest.test_case "sram byte range errors" `Quick test_sram_byte_range_errors;
    Alcotest.test_case "report pp smoke" `Quick test_report_pp_smoke;
    Alcotest.test_case "engine pending counter" `Quick test_engine_pending_counter;
    Alcotest.test_case "pattern mix zero weight" `Quick test_pattern_mix_zero_weight;
    Alcotest.test_case "analysis bound for every app" `Slow
      test_analysis_bound_every_app;
  ]
