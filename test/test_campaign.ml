(* The campaign layer: grids, the domain-parallel runner, emitters,
   and the packed-module dispatch they are built on. *)

module Grid = Utlb_exp.Grid
module Runner = Utlb_exp.Runner
module Emit = Utlb_exp.Emit
module Workloads = Utlb_trace.Workloads
module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
open Utlb

let seed = 42L

let small_grid =
  {
    Grid.name = "test";
    seed;
    workloads = [ Workloads.water; Workloads.volrend ];
    mechanisms =
      [
        Grid.mech ~params:[ ("entries", "1024") ] "utlb";
        Grid.mech ~params:[ ("entries", "1024") ] "intr";
        Grid.mech ~params:[ ("budget", "4096") ] "per-process";
      ];
    tenants = None;
  }

(* --- Grid ---------------------------------------------------------- *)

let test_axes_cross_product () =
  let mechs =
    Grid.axes "utlb"
      [ ("entries", [ "1024"; "8192" ]); ("assoc", [ "direct"; "2-way" ]) ]
  in
  Alcotest.(check int) "4 points" 4 (List.length mechs);
  Alcotest.(check (list string)) "first axis outermost"
    [
      "utlb[entries=1024,assoc=direct]";
      "utlb[entries=1024,assoc=2-way]";
      "utlb[entries=8192,assoc=direct]";
      "utlb[entries=8192,assoc=2-way]";
    ]
    (List.map Grid.mech_label mechs);
  Alcotest.(check string) "no params, no brackets" "intr"
    (Grid.mech_label (Grid.mech "intr"))

let test_cells_and_seeds () =
  let cells = Grid.cells small_grid in
  Alcotest.(check int) "workloads x mechanisms" 6 (List.length cells);
  Alcotest.(check (list int)) "sequential indices" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun c -> c.Grid.index) cells);
  (* Workloads outermost: the first three cells are water. *)
  Alcotest.(check string) "outer order" "water"
    (List.nth cells 2).Grid.workload.Workloads.name;
  Alcotest.(check string) "inner order" "volrend"
    (List.nth cells 3).Grid.workload.Workloads.name;
  let seeds = List.map (Grid.cell_seed small_grid) cells in
  Alcotest.(check int) "all cell seeds distinct" (List.length cells)
    (List.length (List.sort_uniq Int64.compare seeds));
  Alcotest.(check bool) "seeds differ from the grid seed" false
    (List.mem small_grid.Grid.seed seeds)

let test_grid_parse () =
  let text =
    "# comment\n\
     name parsed\n\
     seed 7\n\
     workloads water volrend\n\
     mechanism utlb entries=1024,8192 # trailing comment\n\
     mechanism intr entries=1024\n"
  in
  match Grid.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok grid ->
    Alcotest.(check string) "name" "parsed" grid.Grid.name;
    Alcotest.(check int64) "seed" 7L grid.Grid.seed;
    Alcotest.(check int) "cells" 6 (List.length (Grid.cells grid));
    Alcotest.(check (list string)) "mechanism points"
      [ "utlb[entries=1024]"; "utlb[entries=8192]"; "intr[entries=1024]" ]
      (List.map Grid.mech_label grid.Grid.mechanisms)

let test_grid_parse_scaled () =
  match Grid.of_string "workloads water@2\nmechanism utlb entries=1024\n" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok grid ->
    let w = List.hd grid.Grid.workloads in
    Alcotest.(check string) "renamed by token" "water@2" w.Workloads.name;
    (* The renamed variant still generates a (larger) trace. *)
    let base = (Workloads.water.Workloads.generate ~seed) in
    let scaled = w.Workloads.generate ~seed in
    Alcotest.(check bool) "scaled footprint grows" true
      (Trace.footprint_pages scaled > Trace.footprint_pages base)

let test_grid_parse_errors () =
  let fails ~substring text =
    match Grid.of_string text with
    | Ok _ -> Alcotest.failf "expected %S to fail" text
    | Error e ->
      let found =
        let len = String.length substring in
        let rec scan i =
          i + len <= String.length e
          && (String.equal (String.sub e i len) substring || scan (i + 1))
        in
        scan 0
      in
      if not found then
        Alcotest.failf "error %S does not mention %S" e substring
  in
  fails ~substring:"line 2: unknown workload"
    "workloads water\nworkloads nosuchapp\nmechanism utlb entries=1\n";
  fails ~substring:"line 2: unregistered mechanism"
    "workloads water\nmechanism warp-drive\n";
  fails ~substring:"line 1: bad seed" "seed fortytwo\n";
  fails ~substring:"line 2: expected key=v1,v2 axis"
    "workloads water\nmechanism utlb entries\n";
  fails ~substring:"no workloads" "mechanism utlb entries=1024\n";
  fails ~substring:"no mechanisms" "workloads water\n";
  fails ~substring:"line 1: unknown directive" "workload water\n";
  (* A scale factor that means nothing: NaN, or a scaled footprint or
     lookup count past an int. *)
  fails ~substring:"line 2: Workloads.scaled: factor must be positive"
    "workloads water\nworkloads fft@-1\nmechanism utlb\n";
  fails ~substring:"line 2: Workloads.scaled: factor must be positive"
    "workloads water\nworkloads fft@nan\nmechanism utlb\n";
  fails ~substring:"line 2: Workloads.scaled: factor too large"
    "workloads water\nworkloads fft@1e400\nmechanism utlb\n";
  fails ~substring:"line 1: Workloads.scaled: factor too large"
    "workloads fft@1e300\nmechanism utlb\n";
  (* A mechanism point the registry refuses names its line: 2^55 MB is
     2^63 pages, which wrapped to a 0-page limit. *)
  fails ~substring:"line 2: memory limit of 36028797018963968 MB"
    "workloads water\nmechanism utlb limit-mb=0,36028797018963968\n";
  fails ~substring:"line 3: Hier_engine: prefetch must be >= 1"
    "workloads water\nmechanism intr\nmechanism utlb prefetch=1,0\n"

(* --- Registry and packed dispatch ---------------------------------- *)

let test_registry () =
  Alcotest.(check (list string)) "registered mechanisms"
    [ "intr"; "per-process"; "utlb"; "utopia"; "victima" ]
    (List.map
       (fun (e : Sim_driver.Registry.entry) -> e.Sim_driver.Registry.name)
       (Sim_driver.Registry.mechanisms ()));
  (match Sim_driver.Registry.find "UTLB" with
  | Some e ->
    Alcotest.(check string) "case-insensitive find" "utlb"
      e.Sim_driver.Registry.name
  | None -> Alcotest.fail "find UTLB");
  Alcotest.(check bool) "unknown mechanism" true
    (Option.is_none (Sim_driver.Registry.find "warp-drive"));
  match Sim_driver.Registry.find "utlb" with
  | None -> Alcotest.fail "find utlb"
  | Some e ->
    Alcotest.check_raises "bad parameter value"
      (Invalid_argument
         "mechanism parameter entries=\"lots\": expected an integer")
      (fun () ->
        ignore (e.Sim_driver.Registry.of_params [ ("entries", "lots") ]))

let reports_equal = Alcotest.testable Report.pp ( = )

(* Driving each engine by hand must reproduce the packed-module path
   exactly: [Sim_driver.run_packed] adds nothing but dispatch. *)
let test_packed_path_matches_direct () =
  let trace = Workloads.water.Workloads.generate ~seed in
  let cache = { Ni_cache.entries = 1024; associativity = Ni_cache.Direct } in
  let drive create lookup invariants report =
    let e = create () in
    Trace.iter trace (fun (r : Record.t) ->
        ignore (lookup e ~pid:r.pid ~vpn:r.vpn ~npages:r.npages));
    invariants e;
    report e ~label:"direct"
  in
  let hier_config = { Hier_engine.default_config with cache } in
  Alcotest.check reports_equal "hier engine"
    (drive
       (fun () -> Hier_engine.create ~seed hier_config)
       Hier_engine.lookup Hier_engine.run_invariants Hier_engine.report)
    (Sim_driver.run_packed ~seed ~label:"direct"
       (Sim_driver.Packed ((module Hier_engine), hier_config))
       trace);
  let intr_config = { Intr_engine.cache; memory_limit_pages = None } in
  Alcotest.check reports_equal "intr engine"
    (drive
       (fun () -> Intr_engine.create ~seed intr_config)
       Intr_engine.lookup Intr_engine.run_invariants Intr_engine.report)
    (Sim_driver.run_packed ~seed ~label:"direct"
       (Sim_driver.Packed ((module Intr_engine), intr_config))
       trace);
  let pp_config = Pp_engine.default_config in
  Alcotest.check reports_equal "per-process engine"
    (drive
       (fun () -> Pp_engine.create ~seed pp_config)
       Pp_engine.lookup Pp_engine.run_invariants Pp_engine.report)
    (Sim_driver.run_packed ~seed ~label:"direct"
       (Sim_driver.Packed ((module Pp_engine), pp_config))
       trace)

let test_registry_params_match_variants () =
  let trace = Workloads.volrend.Workloads.generate ~seed in
  let via_registry name params =
    match Sim_driver.Registry.find name with
    | None -> Alcotest.failf "mechanism %s not registered" name
    | Some e ->
      Sim_driver.run_packed ~seed ~label:"m"
        (e.Sim_driver.Registry.of_params params)
        trace
  in
  let cache = { Ni_cache.entries = 2048; associativity = Ni_cache.Two_way } in
  Alcotest.check reports_equal "utlb params"
    (Sim_driver.run_packed ~seed ~label:"m"
       (Sim_driver.Packed
          ( (module Hier_engine),
            {
              Hier_engine.default_config with
              cache;
              prefetch = 4;
              prepin = 4;
              memory_limit_pages = Some 1024;
            } ))
       trace)
    (via_registry "utlb"
       [
         ("entries", "2048"); ("assoc", "2-way"); ("prefetch", "4");
         ("prepin", "4"); ("limit-mb", "4");
       ]);
  (* Unknown keys are ignored so shared grid axes stay usable. *)
  Alcotest.check reports_equal "intr ignores foreign axes"
    (Sim_driver.run_packed ~seed ~label:"m"
       (Sim_driver.Packed
          ( (module Intr_engine),
            { Intr_engine.cache; memory_limit_pages = None } ))
       trace)
    (via_registry "intr"
       [ ("entries", "2048"); ("assoc", "2-way"); ("prefetch", "4") ])

(* A lookup's outcome is what it adds to the report: summed over a run,
   the outcomes are the report's counters, on every engine, with and
   without a fault plan and a tenant quota. Small caches and a pin
   limit make evictions and unpins happen; quarter-size workloads keep
   the 140 runs quick. *)
let test_outcomes_sum_to_report () =
  let plan =
    match
      Utlb_fault.Plan.of_string
        "dma-fail=0.3,dma-retries=1,cache-invalidate=0.1,table-swap=0.05,\
         irq-timeout=0.3"
    with
    | Ok plan -> plan
    | Error msg -> Alcotest.fail msg
  in
  let quota =
    match Utlb_tenant.Tenant.of_string "shared/all=0-4:quota=24" with
    | Ok (Some config) -> config
    | Ok None | Error _ -> Alcotest.fail "tenant spec"
  in
  let params =
    [
      ("entries", "256"); ("prefetch", "4"); ("limit-mb", "1");
      ("budget", "1280"); ("victim-entries", "512"); ("rest-sets", "64");
    ]
  in
  let total = Array.make 8 0 in
  List.iter
    (fun name ->
      let (Sim_driver.Packed ((module E), config)) =
        match Sim_driver.Registry.resolve ~name ~params with
        | Ok packed -> packed
        | Error msg -> Alcotest.fail msg
      in
      List.iter
        (fun (spec : Workloads.spec) ->
          let trace =
            (Workloads.scaled spec ~factor:0.25).Workloads.generate ~seed
          in
          List.iter
            (fun (faulty, tenanted) ->
              let engine =
                E.create ~seed
                  ?faults:
                    (if faulty then Some (Utlb_fault.Injector.create ~seed plan)
                     else None)
                  ?tenancy:
                    (if tenanted then Some (Utlb_tenant.Arbiter.create quota)
                     else None)
                  config
              in
              let sum = Array.make 8 0 in
              let add i n = sum.(i) <- sum.(i) + n in
              Trace.iter trace (fun (r : Record.t) ->
                  let o =
                    E.lookup engine ~pid:r.pid ~vpn:r.vpn ~npages:r.npages
                  in
                  add 0 (Bool.to_int o.Engine_intf.check_miss);
                  add 1 o.Engine_intf.pin_calls;
                  add 2 o.Engine_intf.pages_pinned;
                  add 3 o.Engine_intf.unpin_calls;
                  add 4 o.Engine_intf.pages_unpinned;
                  add 5 o.Engine_intf.ni_misses;
                  add 6 o.Engine_intf.entries_fetched;
                  add 7 o.Engine_intf.interrupts);
              Array.iteri (fun i n -> total.(i) <- total.(i) + n) sum;
              let r = E.report engine ~label:"sum" in
              Alcotest.(check (list int))
                (Printf.sprintf "%s %s%s%s" name spec.Workloads.name
                   (if faulty then " faults" else "")
                   (if tenanted then " quota" else ""))
                Report.
                  [
                    r.check_misses; r.pin_calls; r.pages_pinned;
                    r.unpin_calls; r.pages_unpinned; r.ni_page_misses;
                    r.entries_fetched; r.interrupts;
                  ]
                (Array.to_list sum))
            [ (false, false); (true, false); (false, true); (true, true) ])
        Workloads.all)
    [ "utlb"; "victima"; "utopia"; "intr"; "per-process" ];
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "counter %d exercised" i) true
        (n > 0))
    total

(* --- Runner -------------------------------------------------------- *)

let test_parallel_byte_identical () =
  let serial = Runner.run ~domains:1 ~sanitize:true small_grid in
  let parallel = Runner.run ~domains:4 ~sanitize:true small_grid in
  Alcotest.(check string) "csv identical"
    (Emit.to_string Emit.csv serial)
    (Emit.to_string Emit.csv parallel);
  Alcotest.(check string) "json identical"
    (Emit.to_string Emit.json serial)
    (Emit.to_string Emit.json parallel);
  Alcotest.(check bool) "sanitizers clean" true
    (Runner.violation_summary parallel = [])

let test_runner_labels_and_order () =
  let outcomes = Runner.run small_grid in
  Alcotest.(check (list string)) "cell-order labels"
    [
      "water/utlb[entries=1024]"; "water/intr[entries=1024]";
      "water/per-process[budget=4096]"; "volrend/utlb[entries=1024]";
      "volrend/intr[entries=1024]"; "volrend/per-process[budget=4096]";
    ]
    (List.map
       (fun (o : Runner.outcome) -> o.Runner.report.Report.label)
       outcomes)

let test_runner_unregistered_mechanism () =
  let grid = { small_grid with Grid.mechanisms = [ Grid.mech "warp-drive" ] } in
  Alcotest.check_raises "unregistered"
    (Invalid_argument "Runner.run: unregistered mechanism \"warp-drive\"")
    (fun () -> ignore (Runner.run grid))

let test_merged_report () =
  let outcomes = Runner.run small_grid in
  let merged = Runner.merged_report outcomes in
  Alcotest.(check int) "lookups sum"
    (List.fold_left
       (fun acc (o : Runner.outcome) -> acc + o.Runner.report.Report.lookups)
       0 outcomes)
    merged.Report.lookups;
  Alcotest.(check string) "distinct labels collapse" "merged"
    merged.Report.label

(* --- Emitters ------------------------------------------------------ *)

let test_csv_shape () =
  let outcomes = Runner.run small_grid in
  let lines =
    Emit.to_string Emit.csv outcomes
    |> String.split_on_char '\n'
    |> List.filter (fun l -> not (String.equal l ""))
  in
  Alcotest.(check int) "header + one row per cell" 7 (List.length lines);
  let header = List.hd lines in
  Alcotest.(check bool) "param columns first-seen order" true
    (String.length header > String.length "workload,mechanism,entries,budget"
    && String.equal
         (String.sub header 0 (String.length "workload,mechanism,entries,budget"))
         "workload,mechanism,entries,budget");
  List.iter
    (fun line ->
      Alcotest.(check int) "column count"
        (List.length (String.split_on_char ',' header))
        (List.length (String.split_on_char ',' line)))
    (List.tl lines)

let test_matrix_pivot () =
  let outcomes = Runner.run small_grid in
  let rendered =
    Emit.to_string
      (Emit.matrix ?fmt:None
         ~rows:(fun o -> o.Runner.cell.Grid.workload.Workloads.name)
         ~cols:(fun o -> Grid.mech_label o.Runner.cell.Grid.mech)
         ~metrics:
           [ ("check", fun o -> Report.check_miss_rate o.Runner.report) ])
      outcomes
  in
  let lines =
    String.split_on_char '\n' rendered
    |> List.filter (fun l -> not (String.equal l ""))
  in
  (* Header plus one line per workload (single metric). *)
  Alcotest.(check int) "line count" 3 (List.length lines)

let suite =
  [
    Alcotest.test_case "axes cross product" `Quick test_axes_cross_product;
    Alcotest.test_case "cells and seeds" `Quick test_cells_and_seeds;
    Alcotest.test_case "grid parse" `Quick test_grid_parse;
    Alcotest.test_case "grid parse scaled" `Quick test_grid_parse_scaled;
    Alcotest.test_case "grid parse errors" `Quick test_grid_parse_errors;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "packed path = direct" `Quick
      test_packed_path_matches_direct;
    Alcotest.test_case "registry params = variants" `Quick
      test_registry_params_match_variants;
    Alcotest.test_case "lookup outcomes sum to the report" `Quick
      test_outcomes_sum_to_report;
    Alcotest.test_case "parallel byte-identical" `Quick
      test_parallel_byte_identical;
    Alcotest.test_case "runner labels and order" `Quick
      test_runner_labels_and_order;
    Alcotest.test_case "unregistered mechanism" `Quick
      test_runner_unregistered_mechanism;
    Alcotest.test_case "merged report" `Quick test_merged_report;
    Alcotest.test_case "csv shape" `Quick test_csv_shape;
    Alcotest.test_case "matrix pivot" `Quick test_matrix_pivot;
  ]
