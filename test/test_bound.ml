(* Differential soundness suite for the symbolic worst-case analyzer:
   whatever the bound pass promises, no concrete replay may exceed.

   For all five engines x the paper workloads it asserts that the
   empirically observed average lookup cost (the Section 6.2 equations
   over the replay's own rates) and the peak per-process pinned
   population stay at or under the static bound, that tenanted
   campaign runs respect the per-tenant caps, and that seeded mutant
   configurations make the UP40/UP41/UP42 gates fire. *)

open Utlb
module Bound = Utlb_check.Bound
module Explore = Utlb_check.Explore
module Finding = Utlb_check.Finding
module Catalogue = Utlb_check.Catalogue
module Workloads = Utlb_trace.Workloads
module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
module Pid = Utlb_mem.Pid

let model = Cost_model.default

let trace_npages trace =
  Array.fold_left
    (fun m (r : Record.t) -> max m r.Record.npages)
    1
    (Trace.records trace)

let has_code code findings =
  List.exists (fun (f : Finding.t) -> f.Finding.code = code) findings

(* {2 SLO spec parsing} *)

let test_slo_parse () =
  (match Bound.slo_of_string "lat_us<=250,pinned<=8192" with
  | Ok slo ->
    Alcotest.(check (option (float 1e-9))) "lat" (Some 250.) slo.Bound.lat_us;
    Alcotest.(check (option int)) "pinned" (Some 8192) slo.Bound.pinned
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Bound.slo_of_string " pinned<=4096 " with
  | Ok slo ->
    Alcotest.(check (option (float 1e-9))) "lat omitted" None slo.Bound.lat_us;
    Alcotest.(check (option int)) "pinned only" (Some 4096) slo.Bound.pinned
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Bound.slo_of_string bad with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [
      ""; "lat_us<=x"; "pinned<=-1"; "cheese<=4"; "lat_us=250"; "lat_us<=inf";
      "lat_us<=1e999";
    ]

(* {2 Per-engine harnesses}

   Each harness replays a trace record-by-record through the concrete
   engine, tracking the peak per-process pinned population (or table
   occupancy) as it goes, and pairs the final report with the engine's
   own Section 6.2 average-cost equation. *)

type harness = {
  name : string;
  packed : Engine_intf.packed;
  replay : Trace.t -> Report.t * int;  (** (report, peak per-process) *)
  cost_us : Report.t -> float;
}

let peak_replay ~create ~lookup ~measure ~report trace =
  let engine = create () in
  let peak = ref 0 in
  Trace.iter trace (fun (r : Record.t) ->
      ignore (lookup engine ~pid:r.Record.pid ~vpn:r.Record.vpn ~npages:r.Record.npages);
      peak := max !peak (measure engine r.Record.pid));
  (report engine, !peak)

let harnesses =
  let prefetch = Hier_engine.default_config.Hier_engine.prefetch in
  [
    {
      name = "utlb";
      packed =
        Engine_intf.Packed ((module Hier_engine), Hier_engine.default_config);
      replay =
        peak_replay
          ~create:(fun () -> Hier_engine.create ~seed:Sim_driver.default_seed Hier_engine.default_config)
          ~lookup:Hier_engine.lookup ~measure:Hier_engine.pinned_pages
          ~report:(Hier_engine.report ~label:"utlb");
      cost_us = Report.utlb_cost_us ~prefetch model;
    };
    {
      name = "intr";
      packed =
        Engine_intf.Packed ((module Intr_engine), Intr_engine.default_config);
      replay =
        peak_replay
          ~create:(fun () -> Intr_engine.create ~seed:Sim_driver.default_seed Intr_engine.default_config)
          ~lookup:Intr_engine.lookup ~measure:Intr_engine.pinned_pages
          ~report:(Intr_engine.report ~label:"intr");
      cost_us = Report.intr_cost_us model;
    };
    {
      name = "per-process";
      packed =
        Engine_intf.Packed ((module Pp_engine), Pp_engine.default_config);
      replay =
        peak_replay
          ~create:(fun () -> Pp_engine.create ~seed:Sim_driver.default_seed Pp_engine.default_config)
          ~lookup:Pp_engine.lookup ~measure:Pp_engine.occupancy
          ~report:(Pp_engine.report ~label:"per-process");
      cost_us = Report.utlb_cost_us model;
    };
    {
      name = "victima";
      packed =
        Engine_intf.Packed
          ((module Victima_engine), Victima_engine.default_config);
      replay =
        peak_replay
          ~create:(fun () -> Victima_engine.create ~seed:Sim_driver.default_seed Victima_engine.default_config)
          ~lookup:Victima_engine.lookup ~measure:Victima_engine.pinned_pages
          ~report:(Victima_engine.report ~label:"victima");
      cost_us = Report.victima_cost_us ~prefetch model;
    };
    {
      name = "utopia";
      packed =
        Engine_intf.Packed
          ((module Utopia_engine), Utopia_engine.default_config);
      replay =
        peak_replay
          ~create:(fun () -> Utopia_engine.create ~seed:Sim_driver.default_seed Utopia_engine.default_config)
          ~lookup:Utopia_engine.lookup ~measure:Utopia_engine.pinned_pages
          ~report:(Utopia_engine.report ~label:"utopia");
      cost_us = Report.utopia_cost_us ~prefetch model;
    };
  ]

(* Every empirically observed average lookup cost and peak pinned
   population must sit at or under the static bound, for every engine
   and every paper workload. *)
let test_soundness () =
  List.iter
    (fun h ->
      List.iter
        (fun (spec : Workloads.spec) ->
          let trace =
            spec.Workloads.generate ~seed:Sim_driver.default_seed
          in
          let npages = trace_npages trace in
          let b = Bound.analyze ~model ~npages h.packed in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: bound is clean" h.name spec.Workloads.name)
            false
            (Finding.has_errors b.Bound.findings);
          let report, peak = h.replay trace in
          let observed = h.cost_us report in
          if observed > b.Bound.lat_us then
            Alcotest.failf "%s/%s: observed avg cost %.2f us > bound %.2f us"
              h.name spec.Workloads.name observed b.Bound.lat_us;
          if peak > b.Bound.pinned.Bound.per_process then
            Alcotest.failf "%s/%s: peak pinned %d > per-process bound %d"
              h.name spec.Workloads.name peak
              b.Bound.pinned.Bound.per_process)
        Workloads.all)
    harnesses

(* A bounded configuration must also dominate its replays, and the
   bound must tighten: the limit caps the population the trace-free
   analysis promises. *)
let test_soundness_bounded () =
  let limit_pages = 4096 in
  let config =
    { Hier_engine.default_config with
      Hier_engine.memory_limit_pages = Some limit_pages }
  in
  let packed = Engine_intf.Packed ((module Hier_engine), config) in
  List.iter
    (fun (spec : Workloads.spec) ->
      let trace = spec.Workloads.generate ~seed:Sim_driver.default_seed in
      let npages = trace_npages trace in
      let b = Bound.analyze ~model ~npages packed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: limit binds" spec.Workloads.name)
        true b.Bound.pinned.Bound.bounded;
      Alcotest.(check int)
        (Printf.sprintf "%s: per-process bound is the limit"
           spec.Workloads.name)
        limit_pages b.Bound.pinned.Bound.per_process;
      let engine = Hier_engine.create ~seed:Sim_driver.default_seed config in
      let peak = ref 0 in
      Trace.iter trace (fun (r : Record.t) ->
          ignore
            (Hier_engine.lookup engine ~pid:r.Record.pid ~vpn:r.Record.vpn
               ~npages:r.Record.npages);
          peak := max !peak (Hier_engine.pinned_pages engine r.Record.pid));
      if !peak > b.Bound.pinned.Bound.per_process then
        Alcotest.failf "%s: peak pinned %d > bound %d" spec.Workloads.name
          !peak b.Bound.pinned.Bound.per_process)
    Workloads.all

(* {2 Tenanted campaign runs vs per-tenant caps} *)

let test_tenant_bounds () =
  let spec = "shared/alpha=0-1:quota=64/beta=2-7" in
  let grid =
    {
      Utlb_exp.Grid.name = "bound-tenants";
      seed = Sim_driver.default_seed;
      workloads =
        List.filter
          (fun (w : Workloads.spec) ->
            List.mem w.Workloads.name [ "water"; "fft" ])
          Workloads.all;
      mechanisms = [ Utlb_exp.Grid.mech "utlb" ];
      tenants = Some spec;
    }
  in
  let tenants =
    match Utlb_tenant.Tenant.of_string spec with
    | Ok (Some cfg) -> cfg
    | _ -> Alcotest.fail "tenancy spec did not parse"
  in
  let outcomes = Utlb_exp.Runner.run grid in
  List.iter
    (fun (o : Utlb_exp.Runner.outcome) ->
      let trace_pages =
        trace_npages
          (o.Utlb_exp.Runner.cell.Utlb_exp.Grid.workload.Workloads.generate
             ~seed:Sim_driver.default_seed)
      in
      let b =
        Bound.analyze ~model ~tenants ~npages:trace_pages
          (Engine_intf.Packed ((module Hier_engine), Hier_engine.default_config))
      in
      match o.Utlb_exp.Runner.report.Report.isolation with
      | None -> Alcotest.fail "tenanted cell produced no isolation block"
      | Some iso ->
        Array.iter
          (fun (row : Utlb_tenant.Isolation.row) ->
            match
              List.find_opt
                (fun (tb : Bound.tenant_bound) ->
                  tb.Bound.tenant = row.Utlb_tenant.Isolation.name)
                b.Bound.tenants
            with
            | None ->
              Alcotest.failf "no bound for tenant %s"
                row.Utlb_tenant.Isolation.name
            | Some tb ->
              if
                row.Utlb_tenant.Isolation.pinned_peak > tb.Bound.pinned_cap
              then
                Alcotest.failf "tenant %s: pinned peak %d > cap %d"
                  tb.Bound.tenant row.Utlb_tenant.Isolation.pinned_peak
                  tb.Bound.pinned_cap)
          iso.Utlb_tenant.Isolation.rows)
    outcomes

(* {2 Seeded mutants: the gates must fire} *)

let utlb_packed =
  Engine_intf.Packed ((module Hier_engine), Hier_engine.default_config)

let test_mutant_up40 () =
  let slo =
    match Bound.slo_of_string "lat_us<=1" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let b = Bound.analyze ~model ~slo utlb_packed in
  Alcotest.(check bool) "UP40 fires" true (has_code "UP40" b.Bound.findings);
  Alcotest.(check int) "exit code 1" 1 (Finding.exit_code b.Bound.findings);
  (* A generous SLO stays clean. *)
  let ok =
    match Bound.slo_of_string "lat_us<=100000,pinned<=100000000" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let b = Bound.analyze ~model ~slo:ok utlb_packed in
  Alcotest.(check bool) "generous SLO clean" false
    (Finding.has_errors b.Bound.findings)

let test_mutant_up41 () =
  let faults =
    {
      Utlb_fault.Plan.empty with
      Utlb_fault.Plan.dma_fail = 0.5;
      dma_retries = 40;
      dma_backoff_us = 10.;
    }
  in
  let b = Bound.analyze ~model ~faults utlb_packed in
  Alcotest.(check bool) "UP41 fires" true (has_code "UP41" b.Bound.findings);
  (* A sane retry budget does not. *)
  let faults =
    {
      Utlb_fault.Plan.empty with
      Utlb_fault.Plan.dma_fail = 0.5;
      dma_retries = 3;
      dma_backoff_us = 10.;
    }
  in
  let b = Bound.analyze ~model ~faults utlb_packed in
  Alcotest.(check bool) "bounded retries clean" false
    (has_code "UP41" b.Bound.findings);
  Alcotest.(check bool) "fault surcharge priced in" true
    (b.Bound.fault_us > 0.)

(* The backoff chain doubles per retry, so a larger retry budget never
   reads as cheaper: at 62 retries and more an int 2^n used to wrap and
   certify the hit path. *)
let test_retry_surcharge_grows () =
  let bound retries =
    Bound.analyze ~model
      ~faults:
        {
          Utlb_fault.Plan.empty with
          Utlb_fault.Plan.dma_fail = 0.1;
          dma_retries = retries;
          dma_backoff_us = 1.;
        }
      utlb_packed
  in
  let prev = ref 0. in
  for retries = 0 to 200 do
    let b = bound retries in
    if b.Bound.fault_us < !prev then
      Alcotest.failf "%d retries: surcharge fell to %g us" retries
        b.Bound.fault_us;
    prev := b.Bound.fault_us;
    if retries >= 20 && not (has_code "UP41" b.Bound.findings) then
      Alcotest.failf "%d retries: no UP41" retries
  done

let test_mutant_up42 () =
  let tenants =
    match Utlb_tenant.Tenant.of_string "shared/starved=0-1:quota=2/fat=2-7" with
    | Ok (Some cfg) -> cfg
    | _ -> Alcotest.fail "tenancy spec did not parse"
  in
  let b = Bound.analyze ~model ~tenants ~npages:32 utlb_packed in
  Alcotest.(check bool) "UP42 fires" true (has_code "UP42" b.Bound.findings);
  let starved =
    List.find
      (fun (tb : Bound.tenant_bound) -> tb.Bound.tenant = "starved")
      b.Bound.tenants
  in
  Alcotest.(check bool) "negative headroom" true
    (starved.Bound.headroom < 0)

let analyze_mech ~name ~params =
  Result.map
    (fun packed -> Bound.analyze ~model packed)
    (Sim_driver.Registry.resolve ~name ~params)

let test_up43_up44 () =
  (match analyze_mech ~name:"intr" ~params:[ ("entries", "16") ] with
  | Ok b ->
    Alcotest.(check bool) "UP43 fires for narrow intr cache" true
      (has_code "UP43" b.Bound.findings);
    Alcotest.(check bool) "UP43 is an error under intr semantics" true
      (Finding.has_errors b.Bound.findings)
  | Error e -> Alcotest.fail e);
  match analyze_mech ~name:"utlb" ~params:[ ("limit-mb", "8192") ] with
  | Ok b ->
    Alcotest.(check bool) "UP44 fires for unreachable limit" true
      (has_code "UP44" b.Bound.findings);
    Alcotest.(check bool) "UP44 is only a warning" false
      (Finding.has_errors b.Bound.findings)
  | Error e -> Alcotest.fail e

(* {2 Witness search} *)

let test_witness () =
  List.iter
    (fun h ->
      let b = Bound.analyze ~model h.packed in
      let scope = Explore.default_config.Explore.scope in
      let target = Bound.witness_target scope b in
      let w = Explore.pinned_witness ~target b.Bound.semantics in
      Alcotest.(check bool)
        (Printf.sprintf "%s: witness confirmed" h.name)
        true w.Explore.confirmed;
      Alcotest.(check int)
        (Printf.sprintf "%s: peak meets target" h.name)
        target w.Explore.peak;
      (* The witness trace replays: its records parse back into a
         request program of the same length. *)
      let program = Explore.program_of_records w.Explore.records in
      Alcotest.(check int)
        (Printf.sprintf "%s: records round-trip" h.name)
        (List.length w.Explore.records)
        (List.length program);
      Alcotest.(check bool)
        (Printf.sprintf "%s: witness has a schedule" h.name)
        true
        (w.Explore.schedule <> []))
    harnesses

(* {2 Catalogue and case-insensitive lookup} *)

let test_catalogue () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " catalogued") true (Catalogue.mem code);
      Alcotest.(check bool)
        (String.lowercase_ascii code ^ " resolves lowercase")
        true
        (Catalogue.mem (String.lowercase_ascii code));
      Alcotest.(check (option string))
        (code ^ " same description either case")
        (Catalogue.describe code)
        (Catalogue.describe (String.lowercase_ascii code)))
    [ "UP40"; "UP41"; "UP42"; "UP43"; "UP44"; "UC101"; "UV01" ];
  Alcotest.(check int) "five bound codes" 5 (List.length Catalogue.bounds)

let suite =
  [
    Alcotest.test_case "slo spec parsing" `Quick test_slo_parse;
    Alcotest.test_case "replays never exceed the bound" `Quick test_soundness;
    Alcotest.test_case "memory limit tightens the bound" `Quick
      test_soundness_bounded;
    Alcotest.test_case "tenant caps dominate campaign peaks" `Quick
      test_tenant_bounds;
    Alcotest.test_case "UP40 SLO gate fires" `Quick test_mutant_up40;
    Alcotest.test_case "UP41 retry ceiling fires" `Quick test_mutant_up41;
    Alcotest.test_case "retry surcharge grows with the budget" `Quick
      test_retry_surcharge_grows;
    Alcotest.test_case "UP42 starvation fires" `Quick test_mutant_up42;
    Alcotest.test_case "UP43/UP44 geometry findings" `Quick test_up43_up44;
    Alcotest.test_case "pinned witness confirms all engines" `Quick
      test_witness;
    Alcotest.test_case "catalogue and case-insensitive codes" `Quick
      test_catalogue;
  ]
