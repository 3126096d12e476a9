(* Tests for the correctness tooling: the Utlb_check static linter and
   the runtime invariant sanitizers.

   The sanitizer tests are mutation-style: each one injects a specific
   corruption behind the engine's back (a leaked pin, a garbage-frame
   DMA, a stale cache line, a broken classifier shadow) and asserts the
   matching UVxx violation fires; the golden tests assert that every
   unmutated workload runs violation-free under all three engines. *)

open Utlb
module Check = Utlb_check
module Finding = Utlb_check.Finding
module Config_file = Utlb_check.Config_file
module Config_lint = Utlb_check.Config_lint
module Invariant = Utlb_check.Invariant
module Sanitizer = Utlb_sim.Sanitizer
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory

let pid0 = Pid.of_int 0

let codes findings = List.map (fun f -> f.Finding.code) findings

let has_code code findings = List.mem code (codes findings)

let check_has code findings =
  Alcotest.(check bool)
    (code ^ " reported")
    true (has_code code findings)

(* --- Static lint: config files -------------------------------------- *)

let test_parse_clean () =
  let text =
    "# comment\nengine = utlb\nentries = 4096\nassoc = 2-way\nprefetch = 8\n\
     limit_mb = 32\npin_table = 1:27, 2:30\n"
  in
  let config, findings = Config_file.parse_string text in
  Alcotest.(check (list string)) "no findings" [] (codes findings);
  Alcotest.(check int) "entries" 4096 config.Config_file.entries;
  Alcotest.(check int) "prefetch" 8 config.Config_file.prefetch;
  Alcotest.(check (option int)) "limit" (Some 32) config.Config_file.limit_mb;
  Alcotest.(check bool)
    "pin_table" true
    (config.Config_file.pin_table = [ (1, 27.0); (2, 30.0) ])

let test_parse_syntax_findings () =
  let _, findings =
    Config_file.parse_string
      "no equals here\nentries =\nentires = 1\nentries = bogus\n\
       entries = 512\nentries = 1024\n"
  in
  check_has "UC001" findings;
  check_has "UC005" findings;
  check_has "UC002" findings;
  check_has "UC003" findings;
  check_has "UC004" findings

let test_parse_bad_value_keeps_default () =
  let config, findings = Config_file.parse_string "entries = many\n" in
  check_has "UC003" findings;
  Alcotest.(check int) "default kept" Config_file.default.Config_file.entries
    config.Config_file.entries

(* --- Static lint: semantics ------------------------------------------ *)

let lint text = Config_lint.lint_config (fst (Config_file.parse_string text))

let test_lint_geometry () =
  check_has "UC101" (lint "entries = 0\n");
  check_has "UC102" (lint "entries = 1026\nassoc = 4-way\n");
  check_has "UC103" (lint "entries = 6000\n");
  check_has "UC104" (lint "entries = 65536\n")

let test_lint_windows () =
  check_has "UC110" (lint "prefetch = 0\n");
  check_has "UC111" (lint "entries = 1024\nprefetch = 2048\n");
  check_has "UC112" (lint "prepin = -1\n");
  check_has "UC113" (lint "entries = 1024\nprepin = 2048\n");
  check_has "UC120" (lint "limit_mb = 0\n");
  check_has "UC121" (lint "prepin = 512\nlimit_mb = 1\n")

let test_lint_per_process () =
  check_has "UC130" (lint "engine = pp\nprocesses = 0\n");
  check_has "UC131" (lint "engine = pp\nsram_budget_entries = 0\n");
  check_has "UC132"
    (lint "engine = pp\nprocesses = 64\nsram_budget_entries = 32\n");
  check_has "UC133"
    (lint "engine = pp\nprocesses = 5\nsram_budget_entries = 8192\n")

let test_lint_cost_anchors () =
  check_has "UC140" (Config_lint.lint_cost_anchors ~name:"t" []);
  check_has "UC141"
    (Config_lint.lint_cost_anchors ~name:"t" [ (1, 1.0); (1, 2.0) ]);
  check_has "UC142" (Config_lint.lint_cost_anchors ~name:"t" [ (0, 1.0) ]);
  check_has "UC143" (Config_lint.lint_cost_anchors ~name:"t" [ (1, -1.0) ]);
  check_has "UC144"
    (Config_lint.lint_cost_anchors ~name:"t" [ (1, 5.0); (2, 3.0) ])

let test_lint_cost_relations () =
  check_has "UC150" (lint "intr_us = -10\n");
  check_has "UC151" (lint "ni_hit_us = 5.0\n");
  check_has "UC152" (lint "dma_table = 1:2.5, 2:2.6, 4:2.6\n");
  check_has "UC153" (lint "check_min_us = 1.0\n");
  check_has "UC154" (lint "user_check_us = 20.0\n");
  check_has "UC155" (lint "intr_us = 0.1\n")

let test_lint_defaults_clean () =
  let findings = Config_lint.lint_defaults () in
  Alcotest.(check bool) "no errors" false (Finding.has_errors findings);
  Alcotest.(check int) "no warnings" 0 (Finding.warnings findings)

let test_finding_exit_codes () =
  let err = Finding.v ~code:"UC101" "e" in
  let warn = Finding.v ~severity:Finding.Warning ~code:"UC113" "w" in
  let info = Finding.v ~severity:Finding.Info ~code:"UC104" "i" in
  Alcotest.(check int) "clean" 0 (Finding.exit_code []);
  Alcotest.(check int) "info never fails" 0 (Finding.exit_code ~strict:true [ info ]);
  Alcotest.(check int) "errors fail" 1 (Finding.exit_code [ err; info ]);
  Alcotest.(check int) "warnings pass" 0 (Finding.exit_code [ warn ]);
  Alcotest.(check int) "strict warnings fail" 1
    (Finding.exit_code ~strict:true [ warn ]);
  let sorted = Finding.by_severity [ info; warn; err ] in
  Alcotest.(check (list string)) "severity order" [ "UC101"; "UC113"; "UC104" ]
    (codes sorted)

(* --- Runtime sanitizers: mutation tests ------------------------------ *)

let violation_codes san =
  List.map (fun v -> v.Sanitizer.code) (Sanitizer.violations san)

let check_violation code san =
  Alcotest.(check bool)
    (code ^ " fired")
    true
    (List.mem code (violation_codes san))

let make_hier ?host ?sanitizer () =
  Hier_engine.create ?host ?sanitizer ~seed:7L Hier_engine.default_config

let test_sanitizer_pin_leak () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e = make_hier ~sanitizer:san () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:4);
  (* Leak: an extra pin the engine's accounting never sees. *)
  (match Host_memory.pin (Hier_engine.host e) pid0 ~vpn:9000 ~count:1 with
  | Ok _ -> ()
  | Error `Out_of_memory -> Alcotest.fail "unexpected OOM");
  ignore (Hier_engine.remove_process e pid0);
  check_violation "UV01" san

let test_sanitizer_accounting_drift () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e = make_hier ~sanitizer:san () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:4);
  (match Host_memory.pin (Hier_engine.host e) pid0 ~vpn:9000 ~count:1 with
  | Ok _ -> ()
  | Error `Out_of_memory -> Alcotest.fail "unexpected OOM");
  Hier_engine.run_invariants e;
  check_violation "UV08" san

let test_sanitizer_stale_cache_entry () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e = make_hier ~sanitizer:san () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1);
  let frame = Option.get (Hier_engine.translate e ~pid:pid0 ~vpn:100) in
  (* Corrupt the NI cache: same page, wrong frame. *)
  ignore
    (Ni_cache.insert (Hier_engine.cache e) ~pid:pid0 ~vpn:100
       ~frame:(frame + 1));
  Hier_engine.run_invariants e;
  check_violation "UV04" san

let test_sanitizer_unpinned_cache_entry () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e = make_hier ~sanitizer:san () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1);
  (* Unpin behind the engine's back: the cache line now covers an
     evictable page. *)
  Host_memory.unpin (Hier_engine.host e) pid0 ~vpn:100 ~count:1;
  Hier_engine.run_invariants e;
  check_violation "UV05" san

let test_sanitizer_raise_mode () =
  let san = Sanitizer.create ~mode:Sanitizer.Raise () in
  let e = make_hier ~sanitizer:san () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1);
  Host_memory.unpin (Hier_engine.host e) pid0 ~vpn:100 ~count:1;
  match Hier_engine.run_invariants e with
  | () -> Alcotest.fail "expected Sanitizer.Violation"
  | exception Sanitizer.Violation v ->
    Alcotest.(check string) "code" "UV05" v.Sanitizer.code

let test_sanitizer_garbage_frame_dma () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let host = Host_memory.create () in
  let engine = Utlb_sim.Engine.create () in
  let dma = Utlb_nic.Dma.create (Utlb_nic.Io_bus.create engine) in
  Invariant.guard_dma san ~host dma;
  let garbage = Host_memory.garbage_frame host in
  let payload = Bytes.create 8 in
  Utlb_nic.Dma.host_to_nic dma
    ~frames:[| garbage |]
    ~src:(fun () -> payload)
    ~len:8
    ~on_done:(fun _ -> ());
  check_violation "UV02" san

let test_sanitizer_unpinned_frame_dma () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let host = Host_memory.create () in
  Host_memory.add_process host pid0;
  let frame =
    match Host_memory.ensure_resident host pid0 ~vpn:5 with
    | Ok frame -> frame
    | Error `Out_of_memory -> Alcotest.fail "unexpected OOM"
  in
  let engine = Utlb_sim.Engine.create () in
  let dma = Utlb_nic.Dma.create (Utlb_nic.Io_bus.create engine) in
  Invariant.guard_dma san ~host dma;
  (* Resident but never pinned: the OS may evict it mid-transfer. *)
  Utlb_nic.Dma.nic_to_host dma
    ~frames:[| frame |]
    ~data:(Bytes.create 8)
    ~on_done:(fun _ -> ());
  check_violation "UV03" san;
  (* A frame backing no page at all is also UV03. *)
  Utlb_nic.Dma.nic_to_host dma
    ~frames:[| frame + 1 |]
    ~data:(Bytes.create 8)
    ~on_done:(fun _ -> ());
  Alcotest.(check int) "two violations" 2 (Sanitizer.count san)

let test_sanitizer_nonmonotonic_dispatch () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let engine = Utlb_sim.Engine.create () in
  Invariant.monitor_engine san engine;
  Invariant.check_dispatch san
    ~now:(Utlb_sim.Time.of_us 10.0)
    ~at:(Utlb_sim.Time.of_us 5.0);
  check_violation "UV06" san;
  (* Normal forward dispatch through the monitored engine stays clean. *)
  Sanitizer.clear san;
  ignore
    (Utlb_sim.Engine.schedule engine ~delay:(Utlb_sim.Time.of_us 1.0)
       (fun () -> ()));
  Utlb_sim.Engine.run engine;
  Alcotest.(check bool) "clean" true (Sanitizer.is_clean san)

let test_sanitizer_classifier_divergence () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e = make_hier ~sanitizer:san () in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2);
  Miss_classifier.corrupt_for_testing (Hier_engine.classifier e);
  Hier_engine.run_invariants e;
  check_violation "UV07" san

let test_sanitizer_intr_stale_entry () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e =
    Intr_engine.create ~sanitizer:san ~seed:7L Intr_engine.default_config
  in
  ignore (Intr_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:1);
  Host_memory.unpin (Intr_engine.host e) pid0 ~vpn:100 ~count:1;
  Intr_engine.run_invariants e;
  check_violation "UV05" san

let test_sanitizer_intr_pin_leak () =
  let san = Sanitizer.create ~mode:Sanitizer.Record () in
  let e =
    Intr_engine.create ~sanitizer:san ~seed:7L Intr_engine.default_config
  in
  ignore (Intr_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:2);
  (match Host_memory.pin (Intr_engine.host e) pid0 ~vpn:9000 ~count:1 with
  | Ok _ -> ()
  | Error `Out_of_memory -> Alcotest.fail "unexpected OOM");
  ignore (Intr_engine.remove_process e pid0);
  check_violation "UV01" san

let test_sanitizer_describe () =
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool)
        (code ^ " described")
        true
        (Invariant.describe code <> None))
    Invariant.codes;
  Alcotest.(check (option string)) "unknown" None (Invariant.describe "UV99")

(* --- Golden runs: unmutated workloads are violation-free ------------- *)

let mechanisms =
  [
    ( "utlb",
      Sim_driver.Packed ((module Hier_engine), Hier_engine.default_config) );
    ( "intr",
      Sim_driver.Packed ((module Intr_engine), Intr_engine.default_config) );
    ( "per-process",
      Sim_driver.Packed ((module Pp_engine), Pp_engine.default_config) );
  ]

let test_golden_workloads () =
  List.iter
    (fun (spec : Utlb_trace.Workloads.spec) ->
      List.iter
        (fun (name, mechanism) ->
          let san = Sanitizer.create ~mode:Sanitizer.Record () in
          ignore (Sim_driver.run_workload ~seed:11L ~sanitizer:san mechanism spec);
          if not (Sanitizer.is_clean san) then
            Alcotest.failf "%s/%s: %a" spec.name name Sanitizer.pp san)
        mechanisms)
    Utlb_trace.Workloads.all

let test_golden_limited_memory () =
  (* The eviction/unpin paths only exercise under a tight limit. *)
  let mechanisms =
    [
      ("utlb",
       Sim_driver.Packed
         ( (module Hier_engine),
           {
             Hier_engine.default_config with
             memory_limit_pages = Some 256;
             prepin = 4;
             prefetch = 4;
           } ));
      ("intr",
       Sim_driver.Packed
         ( (module Intr_engine),
           { Intr_engine.default_config with memory_limit_pages = Some 256 } ));
    ]
  in
  List.iter
    (fun (name, mechanism) ->
      let san = Sanitizer.create ~mode:Sanitizer.Record () in
      let spec = List.hd Utlb_trace.Workloads.all in
      ignore (Sim_driver.run_workload ~seed:11L ~sanitizer:san mechanism spec);
      if not (Sanitizer.is_clean san) then
        Alcotest.failf "%s: %a" name Sanitizer.pp san)
    mechanisms

let suite =
  [
    Alcotest.test_case "parse: clean config" `Quick test_parse_clean;
    Alcotest.test_case "parse: syntax findings" `Quick
      test_parse_syntax_findings;
    Alcotest.test_case "parse: bad value keeps default" `Quick
      test_parse_bad_value_keeps_default;
    Alcotest.test_case "lint: geometry" `Quick test_lint_geometry;
    Alcotest.test_case "lint: prefetch/prepin/limit" `Quick test_lint_windows;
    Alcotest.test_case "lint: per-process" `Quick test_lint_per_process;
    Alcotest.test_case "lint: cost anchors" `Quick test_lint_cost_anchors;
    Alcotest.test_case "lint: cost relations" `Quick test_lint_cost_relations;
    Alcotest.test_case "lint: paper defaults are clean" `Quick
      test_lint_defaults_clean;
    Alcotest.test_case "findings: exit codes and ordering" `Quick
      test_finding_exit_codes;
    Alcotest.test_case "sanitizer: pin leak at removal (UV01)" `Quick
      test_sanitizer_pin_leak;
    Alcotest.test_case "sanitizer: accounting drift (UV08)" `Quick
      test_sanitizer_accounting_drift;
    Alcotest.test_case "sanitizer: stale cache entry (UV04)" `Quick
      test_sanitizer_stale_cache_entry;
    Alcotest.test_case "sanitizer: unpinned cache entry (UV05)" `Quick
      test_sanitizer_unpinned_cache_entry;
    Alcotest.test_case "sanitizer: raise mode throws" `Quick
      test_sanitizer_raise_mode;
    Alcotest.test_case "sanitizer: garbage-frame DMA (UV02)" `Quick
      test_sanitizer_garbage_frame_dma;
    Alcotest.test_case "sanitizer: unpinned-frame DMA (UV03)" `Quick
      test_sanitizer_unpinned_frame_dma;
    Alcotest.test_case "sanitizer: non-monotonic dispatch (UV06)" `Quick
      test_sanitizer_nonmonotonic_dispatch;
    Alcotest.test_case "sanitizer: classifier divergence (UV07)" `Quick
      test_sanitizer_classifier_divergence;
    Alcotest.test_case "sanitizer: intr stale entry (UV05)" `Quick
      test_sanitizer_intr_stale_entry;
    Alcotest.test_case "sanitizer: intr pin leak (UV01)" `Quick
      test_sanitizer_intr_pin_leak;
    Alcotest.test_case "sanitizer: code catalogue" `Quick
      test_sanitizer_describe;
    Alcotest.test_case "golden: workloads violation-free" `Slow
      test_golden_workloads;
    Alcotest.test_case "golden: tight memory limit" `Quick
      test_golden_limited_memory;
  ]
