(* Seeded differential coverage for the two modern engines: victima's
   L2 victim store and utopia's hash-constrained RestSeg zone.

   The anchor property is degeneracy: with the new plane sized to zero
   (victim-entries=0 / rest-ways=0) each engine must produce a report
   structurally identical to the hierarchical UTLB on the same trace —
   the modern machinery is additive, never perturbing the 1998 model.
   Under pressure the planes must actually fire (spills/recalls,
   RestSeg hits), and the cross-cutting planes — observability,
   sanitizers, fault injection, tenancy quotas — must behave exactly as
   they do for the built-in engines, deterministically per seed. *)

module Driver = Utlb.Sim_driver
module Report = Utlb.Report
module Stepper = Utlb.Stepper
module Sanitizer = Utlb_sim.Sanitizer
module Workloads = Utlb_trace.Workloads
module Scope = Utlb_obs.Scope
module Trace_sink = Utlb_obs.Trace_sink
module Metrics = Utlb_obs.Metrics
module Plan = Utlb_fault.Plan
module Injector = Utlb_fault.Injector
module Tenant = Utlb_tenant.Tenant
module Arbiter = Utlb_tenant.Arbiter
module Isolation = Utlb_tenant.Isolation
open Utlb

let seed = 0xd1ffL

let report_t = Alcotest.testable Report.pp (fun a b -> a = b)

let packed name params =
  match Driver.Registry.find name with
  | Some e -> e.Driver.Registry.of_params params
  | None -> Alcotest.failf "mechanism %s not registered" name

let run ?sanitizer ?obs ?faults ?tenancy name params
    (spec : Workloads.spec) =
  let trace = spec.Workloads.generate ~seed in
  Driver.run_packed ~seed ?sanitizer ?obs ?faults ?tenancy
    ~label:spec.Workloads.name (packed name params) trace

(* Non-default configurations that put both planes under real pressure:
   a 64-entry cache misses constantly on the paper workloads. *)
let small = [ ("entries", "64") ]

let victima_small = ("victim-entries", "4096") :: small

let utopia_small = ("rest-sets", "4096") :: ("rest-ways", "4") :: small

let fault_plan =
  match
    Plan.of_string
      "dma-fail=0.5,dma-retries=2,cache-invalidate=0.2,table-swap=0.1,\
       irq-timeout=0.5,irq-retries=2"
  with
  | Ok p -> p
  | Error e -> failwith e

(* The quota must be smaller than a single multi-page request:
   admission first makes room by unpinning the tenant's own LRU pages,
   so denials only happen when one request overflows the whole
   quota. *)
let quota_arbiter () =
  match Tenant.of_string "shared/all=0-4:quota=8" with
  | Ok (Some c) -> Arbiter.create c
  | Ok None | Error _ -> Alcotest.fail "tenant spec"

(* --- Degeneracy ---------------------------------------------------- *)

let pressure = [ ("entries", "1024"); ("prefetch", "4") ]

(* Each workload runs bare, under the fault plan and under a quota
   arbiter. Injectors and arbiters are stateful, so every run gets its
   own. *)
let degenerates name zero =
  List.iter
    (fun (spec : Workloads.spec) ->
      List.iter
        (fun (plane, go) ->
          Alcotest.check report_t
            (Printf.sprintf "%s%s: %s = utlb" spec.Workloads.name plane
               (String.concat "=" [ fst zero; snd zero ]))
            (go "utlb" pressure spec)
            (go name (zero :: pressure) spec))
        [
          ("", fun name params spec -> run name params spec);
          ( " under faults",
            fun name params spec ->
              run ~faults:(Injector.create ~seed:7L fault_plan) name params spec
          );
          ( " under a quota",
            fun name params spec ->
              run ~tenancy:(quota_arbiter ()) name params spec );
        ])
    [ Workloads.water; Workloads.radix ]

let test_victima_degenerates () = degenerates "victima" ("victim-entries", "0")

let test_utopia_degenerates () = degenerates "utopia" ("rest-ways", "0")

(* --- The planes fire under pressure -------------------------------- *)

let test_victima_spills_and_recalls () =
  let spec = Workloads.radix in
  let base = run "utlb" small spec in
  let vic = run "victima" victima_small spec in
  Alcotest.(check bool) "spills happen" true (vic.Report.spills > 0);
  Alcotest.(check bool) "recalls happen" true (vic.Report.recalls > 0);
  Alcotest.(check int) "utlb never spills" 0
    (base.Report.spills + base.Report.recalls);
  (* A recall is a counted NI miss served with zero entries fetched, so
     the miss stream is untouched while the walk traffic drops. *)
  Alcotest.(check int) "accesses unchanged" base.Report.ni_page_accesses
    vic.Report.ni_page_accesses;
  Alcotest.(check int) "misses unchanged" base.Report.ni_page_misses
    vic.Report.ni_page_misses;
  Alcotest.(check bool) "recalls skip table walks" true
    (vic.Report.entries_fetched < base.Report.entries_fetched)

let test_utopia_restseg_hits () =
  let spec = Workloads.radix in
  let base = run "utlb" small spec in
  let uto = run "utopia" utopia_small spec in
  Alcotest.(check bool) "restseg hits happen" true
    (uto.Report.restseg_hits > 0);
  Alcotest.(check int) "utlb has no restseg" 0 base.Report.restseg_hits;
  Alcotest.(check int) "accesses unchanged" base.Report.ni_page_accesses
    uto.Report.ni_page_accesses;
  Alcotest.(check bool) "restseg absorbs flexible misses" true
    (uto.Report.ni_page_misses <= base.Report.ni_page_misses)

(* --- Cross-cutting planes ------------------------------------------ *)

(* For the cross-cutting planes the RestSeg is kept small (128 slots)
   so the flexible path still carries real traffic — a RestSeg sized to
   the whole footprint absorbs every access and leaves nothing for the
   fault injector's cache-invalidate/DMA classes to hit. *)
let both =
  [
    ("victima", victima_small);
    ("utopia", ("rest-sets", "64") :: ("rest-ways", "2") :: small);
  ]

let test_obs_unperturbed () =
  List.iter
    (fun (name, params) ->
      let spec = Workloads.volrend in
      let bare = run name params spec in
      let sink = Trace_sink.create () in
      let metrics = Metrics.create () in
      let obs = Scope.create ~sink ~metrics () in
      Alcotest.check report_t
        (name ^ " report unchanged under obs")
        bare
        (run ~obs name params spec))
    both

let test_sanitizers_clean () =
  List.iter
    (fun (name, params) ->
      let san = Sanitizer.create ~mode:Sanitizer.Record () in
      ignore (run ~sanitizer:san name params Workloads.water);
      Alcotest.(check bool) (name ^ " sanitizers clean") true
        (Sanitizer.is_clean san))
    both

let test_fault_recoveries () =
  List.iter
    (fun (name, params) ->
      let go () =
        run
          ~faults:(Injector.create ~seed:7L fault_plan)
          name params Workloads.water
      in
      let a = go () in
      Alcotest.(check bool) (name ^ " recovers from faults") true
        (a.Report.fault_recoveries > 0);
      Alcotest.check report_t (name ^ " deterministic under faults") a (go ()))
    both

let test_tenancy_quota_denials () =
  List.iter
    (fun (name, params) ->
      let r = run ~tenancy:(quota_arbiter ()) name params Workloads.radix in
      match r.Report.isolation with
      | None -> Alcotest.failf "%s: no isolation breakdown" name
      | Some iso ->
        Alcotest.(check bool) (name ^ " quota denials under pressure") true
          (Isolation.quota_denials iso > 0))
    both

(* --- Protocol plane ------------------------------------------------ *)

let test_stepper_semantics () =
  Alcotest.(check string) "victima stepper name" "victima"
    (Stepper.mechanism
       (Victima_engine.stepper Victima_engine.default_config));
  Alcotest.(check string) "utopia stepper name" "utopia"
    (Stepper.mechanism (Utopia_engine.stepper Utopia_engine.default_config));
  Alcotest.(check string) "victima mechanism" "victima"
    Victima_engine.mechanism;
  Alcotest.(check string) "utopia mechanism" "utopia" Utopia_engine.mechanism

(* --- Validation ---------------------------------------------------- *)

(* The registry refuses exactly what [create] refuses, so the checkers
   (which only build configs) cannot certify an engine that would never
   start. *)
let test_invalid_configs () =
  List.iter
    (fun (name, params, msg) ->
      Alcotest.check_raises
        (name ^ " registry rejects")
        (Invalid_argument msg)
        (fun () -> ignore (packed name params)))
    [
      ( "victima",
        [ ("victim-entries", "-1") ],
        "Hier_engine: victim-store entries must be >= 0" );
      ( "utopia",
        [ ("rest-sets", "3") ],
        "Hier_engine: RestSeg sets must be a power of two" );
      ("utlb", [ ("prefetch", "0") ], "Hier_engine: prefetch must be >= 1");
      ("utlb", [ ("prepin", "0") ], "Hier_engine: prepin must be >= 1");
      ( "utlb",
        [ ("limit-mb", "36028797018963968") ],
        "memory limit of 36028797018963968 MB is more 4 KB pages than an \
         int holds (at most 18014398509481983 MB)" );
    ];
  Alcotest.check_raises "create rejects too"
    (Invalid_argument "Hier_engine: prepin must be >= 1") (fun () ->
      ignore
        (Victima_engine.create ~seed
           { Victima_engine.default_config with prepin = 0 }))

let suite =
  [
    Alcotest.test_case "victima degenerates to utlb" `Quick
      test_victima_degenerates;
    Alcotest.test_case "utopia degenerates to utlb" `Quick
      test_utopia_degenerates;
    Alcotest.test_case "victima spills and recalls" `Quick
      test_victima_spills_and_recalls;
    Alcotest.test_case "utopia restseg hits" `Quick test_utopia_restseg_hits;
    Alcotest.test_case "reports unchanged under obs" `Quick
      test_obs_unperturbed;
    Alcotest.test_case "sanitizers clean" `Quick test_sanitizers_clean;
    Alcotest.test_case "fault recoveries, deterministic" `Quick
      test_fault_recoveries;
    Alcotest.test_case "tenancy quota denials" `Quick
      test_tenancy_quota_denials;
    Alcotest.test_case "stepper semantics" `Quick test_stepper_semantics;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs;
  ]
