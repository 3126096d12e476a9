(* Cross-cutting edge cases and failure-injection scenarios that the
   per-module suites do not cover. *)

open Utlb
module Pid = Utlb_mem.Pid
module Rng = Utlb_sim.Rng

let pid0 = Pid.of_int 0

(* A request larger than the pinned-page budget: the engine must pin the
   whole request anyway (correctness over quota) rather than deadlock. *)
let test_request_larger_than_limit () =
  let config =
    { Hier_engine.default_config with memory_limit_pages = Some 2 }
  in
  let e = Hier_engine.create ~seed:1L config in
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:6 in
  Alcotest.(check int) "entire request pinned" 6 o.Engine_intf.pages_pinned;
  (* The next request sheds the overshoot back under the limit. *)
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1);
  Alcotest.(check bool) "limit eventually enforced" true
    (Hier_engine.pinned_pages e pid0 <= 6)

(* Host DRAM exhaustion mid-run: lookups keep succeeding structurally
   (garbage entries, no crash) even when pinning fails. *)
let test_host_dram_exhaustion () =
  let host = Utlb_mem.Host_memory.create ~frames:8 () in
  let e = Hier_engine.create ~host ~seed:1L Hier_engine.default_config in
  (* 7 usable frames; pin 7 pages, then keep looking up new ones. *)
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:0 ~npages:7);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2 in
  Alcotest.(check int) "nothing pinned once DRAM is gone" 0
    o.Engine_intf.pages_pinned;
  (* The unpinned page reads as untranslatable, not as a stale frame. *)
  Alcotest.(check (option int)) "garbage entry" None
    (Hier_engine.translate e ~pid:pid0 ~vpn:100)

(* A zero-filled NI cache never aliases the garbage frame with a real
   one: frame 0 is reserved. *)
let test_garbage_frame_is_reserved () =
  let host = Utlb_mem.Host_memory.create ~frames:16 () in
  let e = Hier_engine.create ~host ~seed:1L Hier_engine.default_config in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:5 ~npages:1);
  match Hier_engine.translate e ~pid:pid0 ~vpn:5 with
  | Some frame -> Alcotest.(check bool) "frame 0 reserved" true (frame <> 0)
  | None -> Alcotest.fail "expected a translation"

(* Interleaved processes with identical access streams stay isolated
   even under a shared memory limit pressure. *)
let test_many_processes_interleaved () =
  let config =
    { Hier_engine.default_config with memory_limit_pages = Some 32 }
  in
  let e = Hier_engine.create ~seed:3L config in
  for round = 0 to 40 do
    for p = 0 to 7 do
      ignore
        (Hier_engine.lookup e ~pid:(Pid.of_int p) ~vpn:(round * 3) ~npages:3)
    done
  done;
  for p = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "pid %d within limit" p)
      true
      (Hier_engine.pinned_pages e (Pid.of_int p) <= 32)
  done

(* Trace round-trip through the real file system, then simulation of the
   loaded copy must agree exactly with the original. *)
let test_saved_trace_simulates_identically () =
  let spec = Utlb_trace.Workloads.volrend in
  let trace = spec.Utlb_trace.Workloads.generate ~seed:9L in
  let file = Filename.temp_file "utlb-edge" ".trace" in
  Out_channel.with_open_text file (fun oc -> Utlb_trace.Trace.save trace oc);
  let loaded =
    match In_channel.with_open_text file Utlb_trace.Trace.load with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  Sys.remove file;
  let run t =
    Sim_driver.run_packed ~seed:1L
      (Sim_driver.Packed ((module Hier_engine), Hier_engine.default_config))
      t
  in
  let a = run trace and b = run loaded in
  Alcotest.(check int) "check misses equal" a.Report.check_misses
    b.Report.check_misses;
  Alcotest.(check int) "ni misses equal" a.Report.ni_page_misses
    b.Report.ni_page_misses

(* Randomised differential test: the UTLB engine and the interrupt
   baseline must agree on NI miss behaviour for identical single-page
   streams under infinite memory (same cache geometry). *)
let prop_mechanism_page_misses_agree =
  QCheck.Test.make
    ~name:"UTLB and Intr agree on NI page misses (infinite memory)"
    ~count:40
    QCheck.(list_of_size Gen.(1 -- 120) (int_bound 60))
    (fun vpns ->
      let cache = { Ni_cache.entries = 16; associativity = Ni_cache.Direct } in
      let u =
        Hier_engine.create ~seed:5L
          { Hier_engine.default_config with cache }
      in
      let i =
        Intr_engine.create ~seed:5L
          { Intr_engine.cache; memory_limit_pages = None }
      in
      List.for_all
        (fun vpn ->
          let uo = Hier_engine.lookup u ~pid:pid0 ~vpn ~npages:1 in
          let io = Intr_engine.lookup i ~pid:pid0 ~vpn ~npages:1 in
          uo.Engine_intf.ni_misses = io.Engine_intf.ni_misses)
        vpns)

(* Randomised oracle: replaying any trace prefix gives prefix-consistent
   counters (simulators are incremental, no retroactive accounting). *)
let prop_prefix_consistency =
  QCheck.Test.make ~name:"report counters grow monotonically" ~count:20
    QCheck.(list_of_size Gen.(2 -- 60) (pair (int_bound 40) (int_range 1 3)))
    (fun lookups ->
      let e = Hier_engine.create ~seed:2L Hier_engine.default_config in
      let last = ref (Hier_engine.report e ~label:"x") in
      List.for_all
        (fun (vpn, npages) ->
          ignore (Hier_engine.lookup e ~pid:pid0 ~vpn ~npages);
          let r = Hier_engine.report e ~label:"x" in
          let ok =
            r.Report.lookups = !last.Report.lookups + 1
            && r.Report.check_misses >= !last.Report.check_misses
            && r.Report.ni_page_misses >= !last.Report.ni_page_misses
            && r.Report.pages_pinned >= !last.Report.pages_pinned
          in
          last := r;
          ok)
        lookups)

(* Engine stress: thousands of events with random delays still fire in
   non-decreasing time order. *)
let prop_engine_time_order =
  QCheck.Test.make ~name:"event engine never goes back in time" ~count:20
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 1000))
    (fun delays ->
      let engine = Utlb_sim.Engine.create () in
      let last = ref (-1.0) in
      let ok = ref true in
      List.iter
        (fun d ->
          ignore
            (Utlb_sim.Engine.schedule engine
               ~delay:(Utlb_sim.Time.of_us (float_of_int d))
               (fun () ->
                 let now = Utlb_sim.Time.to_us (Utlb_sim.Engine.now engine) in
                 if now < !last then ok := false;
                 last := now)))
        delays;
      Utlb_sim.Engine.run engine;
      !ok)

(* Buffers at and past the last translation-table entry (UP02): every
   registered engine replays them without raising, with and without a
   fault plan, and keeps its sanitizer clean; the pages past the table
   stay unpinned and read the garbage frame, so they miss every time:
   in the NI cache, or for the per-process tables (whose NI never
   misses) in the user-level check. Pid 1 first fills a small cache so
   that the backstops hold lines whose keys a pid-0 page past the table
   would alias. *)
let test_buffers_past_the_table () =
  let module Driver = Sim_driver in
  let top = Translation_table.max_vpn in
  let records =
    List.init 64 (fun vpn -> (1, vpn, 1))
    @ [ (0, top, 1); (0, top - 5, 16); (0, top + 1, 4); (0, top - 2, 2) ]
    @ List.init 64 (fun vpn -> (0, top + 1 + vpn, 1))
  in
  let trace =
    Utlb_trace.Trace.of_records
      (Array.of_list
         (List.mapi
            (fun i (pid, vpn, npages) ->
              Utlb_trace.Record.make ~time_us:(float_of_int i)
                ~pid:(Pid.of_int pid) ~vpn ~npages ~op:Utlb_trace.Record.Send)
            records))
  in
  let past =
    List.fold_left
      (fun n (_, vpn, npages) -> n + min npages (max 0 (vpn + npages - 1 - top)))
      0 records
  and past_records =
    List.length
      (List.filter (fun (_, vpn, npages) -> vpn + npages - 1 > top) records)
  in
  let plan =
    match
      Utlb_fault.Plan.of_string
        "dma-fail=0.5,dma-retries=0,cache-invalidate=0.3,table-swap=0.5,\
         irq-timeout=0.5"
    with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (entry : Driver.Registry.entry) ->
      let params =
        match entry.Driver.Registry.name with
        | "intr" -> [ ("entries", "16") ]
        | _ -> [ ("entries", "16"); ("prepin", "8") ]
      in
      List.iter
        (fun faults ->
          let name =
            entry.Driver.Registry.name
            ^ if faults = None then "" else " under faults"
          in
          let san =
            Utlb_sim.Sanitizer.create ~mode:Utlb_sim.Sanitizer.Record ()
          in
          let report =
            Driver.run_packed ~sanitizer:san ?faults
              (entry.Driver.Registry.of_params params)
              trace
          in
          Alcotest.(check int)
            (name ^ ": every record replayed")
            (List.length records) report.Report.lookups;
          (* A page past the table is never cached (nor, per process,
             given an index), so it never hits. *)
          Alcotest.(check bool)
            (name ^ ": pages past the table miss")
            true
            (if entry.Driver.Registry.name = "per-process" then
               report.Report.check_misses >= past_records
             else report.Report.ni_page_misses >= past);
          Alcotest.(check (list string))
            (name ^ ": sanitizer clean")
            []
            (List.map
               (fun v -> v.Utlb_sim.Sanitizer.code)
               (Utlb_sim.Sanitizer.violations san)))
        [ None; Some (Utlb_fault.Injector.create ~seed:5L plan) ])
    (Driver.Registry.mechanisms ());
  (* A span straddling the end: the pages inside are pinned and counted,
     nothing past it is pinned, and the host agrees with the report. *)
  List.iter
    (fun (name, Driver.Packed ((module E), config)) ->
      let host = Utlb_mem.Host_memory.create () in
      let engine = E.create ~host ~seed:Driver.default_seed config in
      let pid = Pid.of_int 0 in
      ignore (E.lookup engine ~pid ~vpn:(top - 1) ~npages:4);
      let report = E.report engine ~label:name in
      Alcotest.(check (list int))
        (name ^ ": lookups, pages pinned, host pins of the straddling span")
        [ 1; 2; 2 ]
        [
          report.Report.lookups;
          report.Report.pages_pinned;
          Utlb_mem.Host_memory.pinned_pages host pid;
        ])
    [
      ( "per-process",
        Driver.Packed ((module Pp_engine), Pp_engine.default_config) );
      ( "utlb",
        Driver.Packed ((module Hier_engine), Hier_engine.default_config) );
    ]

let suite =
  [
    Alcotest.test_case "request larger than limit" `Quick
      test_request_larger_than_limit;
    Alcotest.test_case "host DRAM exhaustion" `Quick test_host_dram_exhaustion;
    Alcotest.test_case "garbage frame reserved" `Quick
      test_garbage_frame_is_reserved;
    Alcotest.test_case "many processes interleaved" `Quick
      test_many_processes_interleaved;
    Alcotest.test_case "saved trace simulates identically" `Quick
      test_saved_trace_simulates_identically;
    Alcotest.test_case "buffers past the table" `Quick
      test_buffers_past_the_table;
    QCheck_alcotest.to_alcotest prop_mechanism_page_misses_agree;
    QCheck_alcotest.to_alcotest prop_prefix_consistency;
    QCheck_alcotest.to_alcotest prop_engine_time_order;
  ]
