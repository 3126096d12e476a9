(* The layer block's microbenchmarks: one bechamel test per structure
   operation on a layer's hot path, measured with the monotonic clock
   and minor-heap allocation. Each result is an OLS estimate per call,
   so it does not depend on the workload that requested it. The tests
   bench/micro.ml already has are taken from it, not written again. *)

open Bechamel
open Toolkit
open Utlb
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory

let pid0 = Pid.of_int 0

let pid1 = Pid.of_int 1

let cycle bound =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land (bound - 1);
    !i

(* A host whose every frame is pinned: each further pin fails after a
   full clock scan, the path pin-pressure's 512-frame cell lives on. *)
let full_host () =
  let host = Host_memory.create ~frames:512 () in
  Host_memory.add_process host pid0;
  let rec fill vpn =
    match Host_memory.pin host pid0 ~vpn ~count:1 with
    | Ok _ -> fill (vpn + 1)
    | Error `Out_of_memory -> vpn
  in
  (host, fill 0)

let synthetic_outcomes () =
  let grid =
    {
      Utlb_exp.Grid.name = "emit";
      seed = 1L;
      workloads = Utlb_trace.Workloads.all;
      mechanisms =
        List.map (fun name -> Utlb_exp.Grid.mech name)
          [ "intr"; "per-process"; "utlb"; "utopia"; "victima" ];
      tenants = None;
    }
  in
  List.map
    (fun (cell : Utlb_exp.Grid.cell) ->
      {
        Utlb_exp.Runner.cell;
        report = Report.empty ~label:cell.workload.Utlb_trace.Workloads.name;
        violations = [];
        metrics = None;
        events = [];
      })
    (Utlb_exp.Grid.cells grid)

(* The tests of the repository's microbench suite (bench/micro.ml),
   under the names of the layers they measure, then the layer ops that
   suite lacks. *)
let tests ~grid_text =
  [
    ("bitvec.all_set", Micro.test_table1);
    ("ni_cache.lookup", Micro.test_table2);
    ("ni_cache.lookup_4way", Micro.test_table8);
    ("translation_table.read_burst32", Micro.test_figure8);
    ("replacement.evict_insert", Micro.test_ablation);
    ("miss_classifier.classify", Micro.test_figure7);
    ("host_memory.pin_unpin_16", Micro.test_table7);
    ("engine.lookup_hit", Micro.test_table4);
    ("engine.lookup_evicting", Micro.test_table5);
    ("cost_model.equation", Micro.test_table6);
    ("sim.schedule_step", Micro.test_event_engine);
    ("net.crc32_4k", Micro.test_crc32);
    ("vmmc.memory_image_write", Micro.test_memory_image);
    ("trace.footprint", Micro.test_table3);
    ("trace.reuse_distances", Micro.test_reuse_distance);
  ]
  @ List.map
      (fun test -> (Test.name test, test))
      [
        (let cache =
           Ni_cache.create { Ni_cache.entries = 1024; associativity = Direct }
         in
         let next = cycle 65536 in
         Test.make ~name:"ni_cache.insert" (Staged.stage (fun () ->
             let vpn = next () in
             ignore (Ni_cache.insert cache ~pid:pid1 ~vpn ~frame:vpn))));
        (let table = Translation_table.create ~garbage_frame:0 ~pid:pid0 () in
         let next = cycle 4096 in
         Test.make ~name:"translation_table.install" (Staged.stage (fun () ->
             let vpn = next () in
             Translation_table.install table ~vpn ~frame:(vpn + 1))));
        (let host, first_unpinned = full_host () in
         Test.make ~name:"host_memory.pin_full" (Staged.stage (fun () ->
             ignore (Host_memory.pin host pid0 ~vpn:first_unpinned ~count:1))));
        Test.make ~name:"engine.create" (Staged.stage (fun () ->
            ignore (Hier_engine.create ~seed:7L Hier_engine.default_config)));
        (let engine = Hier_engine.create ~seed:7L Hier_engine.default_config in
         for vpn = 0 to 255 do
           ignore (Hier_engine.lookup engine ~pid:pid0 ~vpn ~npages:1)
         done;
         Test.make ~name:"engine.report" (Staged.stage (fun () ->
             ignore (Hier_engine.report engine ~label:"bench"))));
        (let probe = Sys.opaque_identity Utlb_obs.Probe.null in
         Test.make ~name:"obs.probe_null_emit" (Staged.stage (fun () ->
             probe.emit Utlb_obs.Event.Pin ~pid:0 ~vpn:1 ~count:1)));
        (let probe = Utlb_obs.Probe.of_scope (Utlb_obs.Scope.create ()) in
         Test.make ~name:"obs.probe_active_emit" (Staged.stage (fun () ->
             probe.emit Utlb_obs.Event.Pin ~pid:0 ~vpn:1 ~count:1;
             probe.flush ())));
        (let scope = Utlb_obs.Scope.create () in
         Test.make ~name:"obs.scope_tick" (Staged.stage (fun () ->
             Utlb_obs.Scope.tick scope ~pid:0 ~vpn:1 ~npages:1 ())));
        (let heap = Utlb_sim.Heap.create ~cmp:Int.compare in
         let next = cycle 1048576 in
         for _ = 1 to 4096 do
           Utlb_sim.Heap.push heap ((next () * 7919) land 1048575)
         done;
         Test.make ~name:"sim.heap_push_pop" (Staged.stage (fun () ->
             Utlb_sim.Heap.push heap ((next () * 7919) land 1048575);
             ignore (Utlb_sim.Heap.pop heap))));
        Test.make ~name:"exp.grid_parse" (Staged.stage (fun () ->
            ignore (Utlb_exp.Grid.of_string grid_text)));
        (let outcomes = synthetic_outcomes () in
         Test.make ~name:"exp.emit_csv" (Staged.stage (fun () ->
             ignore (Utlb_exp.Emit.to_string Utlb_exp.Emit.csv outcomes))));
      ]

(* layers.exe QUOTA GRID: [QUOTA] seconds of sampling per test, then
   one line per test, [name ns words], in sorted name order. perf.exe
   runs it as a process of its own, so that the suite's fixtures (two
   generated traces among them) stay out of the workload's heap and
   peak RSS. *)
let () =
  let quota, grid_text =
    match Sys.argv with
    | [| _; quota; grid |] ->
      (float_of_string quota, In_channel.with_open_bin grid In_channel.input_all)
    | _ ->
      prerr_endline "usage: layers QUOTA GRID";
      exit 2
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let estimate instance raw =
    match Analyze.OLS.estimates (Analyze.one ols instance raw) with
    | Some (e :: _) -> e
    | Some [] | None -> nan
  in
  tests ~grid_text
  |> List.map (fun (name, test) ->
         match Test.elements test with
         | [ elt ] ->
           let raw = Benchmark.run cfg instances elt in
           (name, estimate Instance.monotonic_clock raw,
            estimate Instance.minor_allocated raw)
         | _ -> invalid_arg ("layers: grouped test " ^ name))
  |> List.sort compare
  |> List.iter (fun (name, ns, words) -> Printf.printf "%s %.17g %.17g\n" name ns words)
