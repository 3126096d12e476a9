(* The fault-injection plane: plan grammar, injector determinism, and
   the recovery paths it exercises end to end in all three translation
   engines. *)

module Plan = Utlb_fault.Plan
module Injector = Utlb_fault.Injector
module Workloads = Utlb_trace.Workloads
module Sim_driver = Utlb.Sim_driver

let heavy_plan_spec =
  "dma-fail=0.5,dma-retries=2,dma-backoff-us=1.0,cache-invalidate=0.2,\
   table-swap=0.1,irq-timeout=0.5,irq-retries=2"

let heavy_plan () =
  match Plan.of_string heavy_plan_spec with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_plan_roundtrip () =
  let p = heavy_plan () in
  (match Plan.of_string (Plan.to_string p) with
  | Ok p' -> Alcotest.(check bool) "spec round-trips" true (p = p')
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "empty prints none" "none" (Plan.to_string Plan.empty);
  Alcotest.(check bool) "empty is empty" true (Plan.is_empty Plan.empty);
  Alcotest.(check bool) "heavy is not" false (Plan.is_empty p)

let test_plan_parse_errors () =
  (match Plan.parse "flux-capacitor=0.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  (* Keys of classes no engine reads are unknown keys too: the parser
     refuses them, naming the seven it takes, and the linter reports
     UC170. *)
  let live =
    "(expected one of dma-fail, dma-retries, dma-backoff-us, \
     cache-invalidate, table-swap, irq-timeout, irq-retries)"
  in
  List.iter
    (fun spec ->
      (match Plan.parse spec with
      | Error msg ->
        Alcotest.(check bool)
          (spec ^ " names the live keys") true
          (String.ends_with ~suffix:live msg)
      | Ok _ -> Alcotest.failf "%s accepted" spec);
      Alcotest.(check (list string))
        (spec ^ " lint") [ "UC170" ]
        (List.map
           (fun (f : Utlb_check.Finding.t) -> f.code)
           (Utlb_check.Config_lint.lint_faults spec)))
    [
      "dma-spike=0.1"; "dma-spike-us=50"; "bus-stall=0.1"; "bus-stall-us=20";
      "net-drop=0.1"; "net-dup=0.1";
    ];
  (match Plan.parse "dma-fail=banana" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad value accepted");
  match Plan.parse "dma-fail" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing value accepted"

let test_plan_validate () =
  match Plan.parse "dma-fail=1.5,irq-timeout=0.2,irq-retries=-1" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let problems = Plan.validate p in
    let keys = List.map fst problems in
    Alcotest.(check (list string))
      "both range problems reported" [ "dma-fail"; "irq-retries" ] keys;
    (* The strict entry point refuses the same spec. *)
    (match Plan.of_string "dma-fail=1.5" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "out-of-range probability accepted");
    Alcotest.(check (list (pair string string)))
      "well-formed plan validates clean" []
      (Plan.validate (heavy_plan ()));
    (* NaN and infinity pass [< 0] and [> 1] tests, and a DMA budget of
       1,024 retries prices an infinite backoff: each is a range problem
       on its own key, linted as UC171 (probability) or UC172. *)
    List.iter
      (fun (spec, key, code) ->
        match Plan.parse spec with
        | Error e -> Alcotest.fail e
        | Ok p ->
          Alcotest.(check (list string)) spec [ key ]
            (List.map fst (Plan.validate p));
          Alcotest.(check (list string))
            (spec ^ " lint") [ code ]
            (List.map
               (fun (f : Utlb_check.Finding.t) -> f.code)
               (Utlb_check.Config_lint.lint_faults spec)))
      [
        ("dma-fail=nan", "dma-fail", "UC171");
        ("cache-invalidate=inf", "cache-invalidate", "UC171");
        ("dma-fail=1,dma-backoff-us=inf", "dma-backoff-us", "UC172");
        ("dma-fail=1,dma-backoff-us=1e300", "dma-backoff-us", "UC172");
        ("dma-fail=0.1,dma-backoff-us=nan", "dma-backoff-us", "UC172");
        ("dma-fail=1,dma-retries=1024", "dma-retries", "UC172");
      ];
    match Plan.of_string "dma-fail=1,dma-retries=1023,dma-backoff-us=1e9" with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "a plan at both caps is refused: %s" e

(* An injector is a pure function of (seed, plan): the same seed must
   reproduce the same decision stream. *)
let test_injector_determinism () =
  let p = heavy_plan () in
  let drain inj =
    List.init 200 (fun _ ->
        ( Injector.dma_attempts inj,
          Injector.cache_invalidate inj,
          Injector.table_swap inj,
          Injector.irq_reissues inj ))
  in
  let a = drain (Injector.create ~seed:99L p) in
  let b = drain (Injector.create ~seed:99L p) in
  Alcotest.(check bool) "same seed, same decisions" true (a = b)

(* Probability-0 classes never fire; an empty plan answers every query
   with the clean outcome and injects nothing. *)
let test_empty_plan_is_inert () =
  let inj = Injector.create Plan.empty in
  for _ = 1 to 100 do
    Alcotest.(check (option int)) "dma clean" (Some 0)
      (Injector.dma_attempts inj);
    Alcotest.(check bool) "no invalidate" false (Injector.cache_invalidate inj);
    Alcotest.(check bool) "no swap" false (Injector.table_swap inj);
    Alcotest.(check int) "no reissue" 0 (Injector.irq_reissues inj)
  done;
  Alcotest.(check int) "nothing injected" 0 (Injector.injected inj)

let test_backoff_schedule () =
  match Plan.of_string "dma-fail=0.1,dma-retries=4,dma-backoff-us=2.0" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check (float 1e-9)) "no failures, no backoff" 0.0
      (Plan.backoff_us p ~attempts:0);
    (* 2 * (2^3 - 1) = 14: exponential doubling per retry. *)
    Alcotest.(check (float 1e-9)) "three failures" 14.0
      (Plan.backoff_us p ~attempts:3);
    (* The series keeps growing where an int 2^n would wrap. *)
    for attempts = 1 to 200 do
      let b = Plan.backoff_us p ~attempts in
      if not (b > Plan.backoff_us p ~attempts:(attempts - 1)) then
        Alcotest.failf "backoff after %d failures: %g us" attempts b
    done

let test_irq_reissue_budget () =
  (match Plan.of_string "irq-timeout=1.0,irq-retries=3" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let inj = Injector.create p in
    for _ = 1 to 20 do
      (* Certain timeout: every issue burns the whole budget, then the
         interrupt is serviced unconditionally. *)
      Alcotest.(check int) "budget bounds reissues" 3
        (Injector.irq_reissues inj)
    done);
  match Plan.of_string "irq-timeout=1.0,irq-retries=0" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let inj = Injector.create p in
    Alcotest.(check int) "zero budget disables the class" 0
      (Injector.irq_reissues inj);
    Alcotest.(check int) "nothing injected" 0 (Injector.injected inj)

(* Each engine degrades gracefully under a heavy plan: the run
   completes and counts its recoveries instead of aborting. *)
let mechanisms =
  [
    ( "utlb",
      Sim_driver.Packed
        ((module Utlb.Hier_engine), Utlb.Hier_engine.default_config) );
    ( "intr",
      Sim_driver.Packed
        ((module Utlb.Intr_engine), Utlb.Intr_engine.default_config) );
    ( "per-process",
      Sim_driver.Packed ((module Utlb.Pp_engine), Utlb.Pp_engine.default_config)
    );
  ]

let test_engines_recover () =
  let trace = Workloads.water.Workloads.generate ~seed:42L in
  List.iter
    (fun (name, mech) ->
      let inj = Injector.create ~seed:7L (heavy_plan ()) in
      let r = Sim_driver.run_packed ~seed:42L ~faults:inj mech trace in
      Alcotest.(check bool)
        (name ^ " recovered from injected faults")
        true
        (r.Utlb.Report.fault_recoveries > 0);
      Alcotest.(check bool)
        (name ^ " injector saw faults")
        true
        (Injector.injected inj > 0))
    mechanisms

(* An injector over the empty plan consumes no randomness, so the run
   is indistinguishable from one with no injector at all — the property
   that keeps every golden output stable. *)
let test_empty_plan_changes_nothing () =
  let trace = Workloads.water.Workloads.generate ~seed:42L in
  List.iter
    (fun (name, mech) ->
      let bare = Sim_driver.run_packed ~seed:42L mech trace in
      let inert =
        Sim_driver.run_packed ~seed:42L ~faults:(Injector.create Plan.empty)
          mech trace
      in
      Alcotest.(check bool) (name ^ " byte-identical report") true
        (bare = inert))
    mechanisms

let test_faulted_run_is_deterministic () =
  let trace = Workloads.water.Workloads.generate ~seed:42L in
  let once () =
    Sim_driver.run_packed ~seed:42L
      ~faults:(Injector.create ~seed:7L (heavy_plan ()))
      (List.assoc "utlb" mechanisms) trace
  in
  Alcotest.(check bool) "same seeds, same report" true (once () = once ())

(* The lenient trace loader: malformed records are skipped with their
   line numbers, good records survive. *)
let test_lenient_trace_load () =
  let file = Filename.temp_file "utlb_fault_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc
            "# header comment\n\
             1.000 0 16 1 S\n\
             not a record\n\
             2.000 0 17 2 X\n\
             3.000 1 18 1 F\n");
      let skipped_lines = ref [] in
      let trace, skipped =
        In_channel.with_open_text file
          (Utlb_trace.Trace.load_lenient ~on_skip:(fun ~line msg ->
               skipped_lines := (line, msg) :: !skipped_lines))
      in
      Alcotest.(check int) "two records survive" 2
        (Utlb_trace.Trace.length trace);
      Alcotest.(check int) "two skipped" 2 skipped;
      Alcotest.(check (list int)) "skip line numbers" [ 3; 4 ]
        (List.rev_map fst !skipped_lines);
      (* The strict loader refuses the same file, naming the line. *)
      match In_channel.with_open_text file Utlb_trace.Trace.load with
      | Ok _ -> Alcotest.fail "strict load accepted a malformed record"
      | Error msg ->
        Alcotest.(check bool) "error carries line number" true
          (String.length msg >= 7 && String.sub msg 0 7 = "line 3:"))

let suite =
  [
    Alcotest.test_case "plan roundtrip" `Quick test_plan_roundtrip;
    Alcotest.test_case "plan parse errors" `Quick test_plan_parse_errors;
    Alcotest.test_case "plan validate" `Quick test_plan_validate;
    Alcotest.test_case "injector determinism" `Quick test_injector_determinism;
    Alcotest.test_case "empty plan is inert" `Quick test_empty_plan_is_inert;
    Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "irq reissue budget" `Quick test_irq_reissue_budget;
    Alcotest.test_case "engines recover under faults" `Quick
      test_engines_recover;
    Alcotest.test_case "empty plan changes nothing" `Quick
      test_empty_plan_changes_nothing;
    Alcotest.test_case "faulted run deterministic" `Quick
      test_faulted_run_is_deterministic;
    Alcotest.test_case "lenient trace load" `Quick test_lenient_trace_load;
  ]
