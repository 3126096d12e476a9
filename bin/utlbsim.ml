(* utlbsim: command-line driver for the UTLB trace-driven simulator.

   Subcommands:
     run     — simulate one workload/configuration and print the report
               (optionally exporting a Chrome trace and a metrics
               snapshot)
     sweep   — run a declarative campaign grid (workloads x mechanisms
               x config axes) across N domains and emit csv/json/table
     inspect — replay one cell under full observation and rank the
               costliest event classes
     list    — registered mechanisms and calibrated workloads
     trace   — generate a workload trace and write it to a file
     stats   — print Table-3 statistics for a saved trace file
     analyze — reuse-distance and locality analysis of a workload
     synth   — build a custom pattern-based workload and compare
               mechanisms on it

   Every subcommand takes --verbose, which prints debug lines from the
   utlb.* log sources on stderr. *)

open Cmdliner
module Workloads = Utlb_trace.Workloads
module Trace = Utlb_trace.Trace
open Utlb

let app_conv =
  let spec_of name =
    match Workloads.find name with
    | Some spec -> Ok spec
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown application %S (expected one of %s)" name
              (String.concat ", "
                 (List.map (fun (w : Workloads.spec) -> w.name) Workloads.all))))
  in
  (* `name@factor' scales the workload, grid-file style: same access
     structure, footprint and lookup count multiplied. *)
  let parse s =
    match String.index_opt s '@' with
    | None -> spec_of s
    | Some i -> (
      let name = String.sub s 0 i in
      let factor = String.sub s (i + 1) (String.length s - i - 1) in
      match (spec_of name, float_of_string_opt factor) with
      | Error e, _ -> Error e
      | Ok _, None ->
        Error (`Msg (Printf.sprintf "bad scale factor %S in %S" factor s))
      | Ok spec, Some f -> (
        try
          let scaled = Workloads.scaled spec ~factor:f in
          Ok
            (Workloads.custom ~name:s
               ~problem_size:scaled.Workloads.problem_size
               ~description:scaled.Workloads.description
               ~generate:scaled.Workloads.generate ())
        with Invalid_argument msg -> Error (`Msg msg)))
  in
  let print ppf (w : Workloads.spec) = Format.pp_print_string ppf w.name in
  Arg.conv (parse, print)

let assoc_conv =
  let parse s =
    match Ni_cache.associativity_of_string s with
    | Some a -> Ok a
    | None ->
      Error (`Msg "expected direct, direct-nohash, 2-way, or 4-way")
  in
  let print ppf a = Format.pp_print_string ppf (Ni_cache.associativity_name a) in
  Arg.conv (parse, print)

let policy_conv =
  let parse s =
    match Replacement.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg "expected lru, mru, lfu, mfu, or random")
  in
  let print ppf p = Format.pp_print_string ppf (Replacement.policy_name p) in
  Arg.conv (parse, print)

let app_arg =
  Arg.(
    required
    & opt (some app_conv) None
    & info [ "a"; "app" ] ~docv:"APP"
        ~doc:
          "Workload (fft, lu, barnes, ...). APP@FACTOR runs a scaled \
           variant, e.g. fft@0.01.")

let app_opt_arg =
  Arg.(
    value
    & opt (some app_conv) None
    & info [ "a"; "app" ] ~docv:"APP"
        ~doc:
          "Workload (fft, lu, barnes, ...). APP@FACTOR runs a scaled \
           variant, e.g. fft@0.01. Required unless $(b,--trace-in) is \
           given.")

let plan_conv =
  let parse s =
    match Utlb_fault.Plan.of_string s with
    | Ok plan -> Ok plan
    | Error msg -> Error (`Msg msg)
  in
  let print ppf plan =
    Format.pp_print_string ppf (Utlb_fault.Plan.to_string plan)
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt (some plan_conv) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Fault-injection plan: comma-separated KEY=VALUE pairs, e.g. \
              $(b,dma-fail=0.05,dma-retries=3,table-swap=0.01). Keys: %s. \
              Injection is deterministic in the seed; recoveries are \
              counted in the report."
             (String.concat ", " Utlb_fault.Plan.keys)))

(* --tenants carries the raw spec: the conv validates it eagerly (so a
   bad spec fails argument parsing, with the grammar in the message)
   but keeps the string, which `sweep' installs as the grid-level
   directive and `run' compiles into an arbiter. *)
let tenants_conv =
  let parse s =
    match Utlb_tenant.Tenant.of_string s with
    | Ok _ -> Ok s
    | Error msg ->
      Error (`Msg (Printf.sprintf "%s (%s)" msg Utlb_tenant.Tenant.grammar))
  in
  Arg.conv (parse, Format.pp_print_string)

let tenants_arg =
  Arg.(
    value
    & opt (some tenants_conv) None
    & info [ "tenants" ] ~docv:"SPEC"
        ~doc:
          "Multi-tenant partitioning spec \
           $(b,MODE/NAME=PIDS:quota=N:share=F:weight=N/...) with MODE \
           one of shared, offset, or strict and PIDS $(b,+)-joined pids \
           or ranges (e.g. $(b,strict/victim=0:share=0.5/noisy=1-3)). \
           $(b,off) disables tenancy. Per-tenant isolation counters are \
           appended to the report.")

(* Tenancy config lints (UC18x) are warnings: the run proceeds, the
   codes land on stderr so report goldens are unaffected. *)
let warn_tenant_lints = function
  | None -> ()
  | Some cfg ->
    List.iter
      (fun (code, msg) -> Printf.eprintf "%s: %s\n%!" code msg)
      (Utlb_tenant.Tenant.validate cfg)

let tenancy_of_spec spec =
  match Option.map Utlb_tenant.Tenant.of_string spec with
  | None | Some (Ok None) -> None
  | Some (Ok (Some cfg)) ->
    warn_tenant_lints (Some cfg);
    Some (Utlb_tenant.Arbiter.create cfg)
  | Some (Error msg) ->
    (* Unreachable after conv validation, but fail loudly anyway. *)
    Printf.eprintf "bad --tenants spec: %s\n" msg;
    exit 1

(* The fault stream is seeded from the run seed but xor'd so it stays
   distinct from the engine's own RNG stream (same derivation as the
   campaign runner's per-cell injectors). *)
let injector_of ~seed faults =
  Option.map
    (fun plan ->
      Utlb_fault.Injector.create ~seed:(Int64.logxor seed 0xFA17_FA17L) plan)
    faults

let print_fault_summary inj =
  Printf.printf "faults          %d injected, %d recovered (plan: %s)\n"
    (Utlb_fault.Injector.injected inj)
    (Utlb_fault.Injector.recoveries inj)
    (Utlb_fault.Plan.to_string (Utlb_fault.Injector.plan inj));
  List.iter
    (fun (klass, n) -> Printf.printf "  %-17s %d\n" klass n)
    (Utlb_fault.Injector.by_class inj)

let entries_arg =
  Arg.(
    value & opt int 8192
    & info [ "e"; "entries" ] ~docv:"N" ~doc:"Shared UTLB-Cache entries.")

let assoc_arg =
  Arg.(
    value
    & opt assoc_conv Ni_cache.Direct
    & info [ "assoc" ] ~docv:"ASSOC" ~doc:"Cache organisation.")

let prefetch_arg =
  Arg.(
    value & opt int 1
    & info [ "prefetch" ] ~docv:"N" ~doc:"Entries fetched per NI miss.")

let prepin_arg =
  Arg.(
    value & opt int 1
    & info [ "prepin" ] ~docv:"N" ~doc:"Pages pre-pinned per check miss.")

let policy_arg =
  Arg.(
    value
    & opt policy_conv Replacement.Lru
    & info [ "policy" ] ~docv:"POLICY" ~doc:"User-level replacement policy.")

let limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "limit-mb" ] ~docv:"MB"
        ~doc:"Per-process pinned-memory limit in megabytes.")

let seed_arg =
  Arg.(
    value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let intr_arg =
  Arg.(
    value & flag
    & info [ "interrupt-based" ]
        ~doc:"Simulate the interrupt-based baseline instead of UTLB.")

let print_report model prefetch mechanism_is_intr r =
  Printf.printf "workload        %s\n" r.Report.label;
  Printf.printf "lookups         %d\n" r.Report.lookups;
  Printf.printf "check misses    %d (%.3f/lookup)\n" r.Report.check_misses
    (Report.check_miss_rate r);
  Printf.printf "NI misses       %d lookups, %d pages (%.3f/lookup)\n"
    r.Report.ni_miss_lookups r.Report.ni_page_misses (Report.ni_miss_rate r);
  Printf.printf "pins            %d calls, %d pages\n" r.Report.pin_calls
    r.Report.pages_pinned;
  Printf.printf "unpins          %d calls, %d pages (%.3f/lookup)\n"
    r.Report.unpin_calls r.Report.pages_unpinned (Report.unpin_rate r);
  Printf.printf "interrupts      %d\n" r.Report.interrupts;
  Printf.printf "3C breakdown    compulsory=%d capacity=%d conflict=%d\n"
    r.Report.compulsory r.Report.capacity r.Report.conflict;
  (* Fault and skip lines appear only when there is something to say,
     keeping fault-free output byte-identical to the pre-fault-plane
     format (the @obs golden depends on it). *)
  if r.Report.fault_recoveries > 0 then
    Printf.printf "recoveries      %d\n" r.Report.fault_recoveries;
  if r.Report.records_skipped > 0 then
    Printf.printf "records skipped %d\n" r.Report.records_skipped;
  (* Same gating for tenancy: the per-tenant block exists only when the
     run carried an arbiter, so untenanted reports stay byte-identical. *)
  (match r.Report.isolation with
  | None -> ()
  | Some iso -> Format.printf "%a@." Utlb_tenant.Isolation.pp iso);
  let cost =
    if mechanism_is_intr then Report.intr_cost_us model r
    else Report.utlb_cost_us ~prefetch model r
  in
  Printf.printf "avg lookup cost %.2f us\n" cost

let metrics_fmt_arg =
  Arg.(
    value
    & opt (some (enum [ ("csv", `Csv); ("json", `Json) ])) None
    & info [ "metrics" ] ~docv:"FORMAT"
        ~doc:
          "Collect an observability metrics snapshot (event counters, \
           volume counters, latency histograms) and print it as csv or \
           json after the report.")

let print_metrics fmt snapshot =
  let ppf = Format.std_formatter in
  (match fmt with
  | `Csv -> Utlb_obs.Metrics.Snapshot.to_csv ppf snapshot
  | `Json -> Utlb_obs.Metrics.Snapshot.to_json ppf snapshot);
  Format.pp_print_flush ppf ()

let write_chrome_trace file sink =
  Out_channel.with_open_text file (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      Utlb_obs.Export.chrome_json ppf sink;
      Format.pp_print_flush ppf ());
  Printf.printf "trace           %d event(s) (%d dropped) -> %s\n"
    (Utlb_obs.Trace_sink.emitted sink)
    (Utlb_obs.Trace_sink.dropped sink)
    file

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Enable the runtime invariant sanitizers (pin accounting, \
           garbage-frame use, cache/host-table agreement, classifier \
           shadow checks). Violations are printed after the report and \
           make the command exit 1.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:"Print debug lines from the utlb.* log sources on stderr.")

let setup_logging verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

(* A subcommand whose term sets logging up first: cmdliner evaluates
   the left operand of [$] before the right one, and evaluating [term]
   runs the command. *)
let cmd info term =
  Cmd.v info
    Term.(
      const (fun () result -> result)
      $ (const setup_logging $ verbose_arg)
      $ term)

let run_cmd =
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON timeline of the run to \
             $(docv); open it in chrome://tracing or Perfetto.")
  in
  let trace_cap_arg =
    Arg.(
      value
      & opt int Utlb_obs.Trace_sink.default_capacity
      & info [ "trace-cap" ] ~docv:"N"
          ~doc:
            "Trace ring capacity in events; older events are dropped \
             (whole-run counts survive in the trace's otherData block).")
  in
  let trace_in_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace-in" ] ~docv:"FILE"
          ~doc:
            "Replay a saved trace file instead of generating a \
             workload. Malformed records are skipped with a warning \
             and counted in the report.")
  in
  let run app trace_in entries assoc prefetch prepin policy limit seed intr
      sanitize trace_out trace_cap metrics_fmt faults tenants =
    let cache = { Ni_cache.entries; associativity = assoc } in
    (* A config the engine refuses is a usage error, as in sweep. *)
    let refuse msg =
      Printf.eprintf "utlbsim run: %s\n" msg;
      exit 1
    in
    let memory_limit_pages =
      try Option.map Utlb_mem.Addr.pages_of_mb limit
      with Invalid_argument msg -> refuse msg
    in
    let (Sim_driver.Packed ((module E), config) as packed) =
      if intr then
        Sim_driver.Packed
          ((module Intr_engine), { Intr_engine.cache; memory_limit_pages })
      else
        Sim_driver.Packed
          ( (module Hier_engine),
            {
              Hier_engine.cache;
              prefetch;
              prepin;
              policy;
              memory_limit_pages;
              backstop = Hier_engine.No_backstop;
            } )
    in
    let sanitizer =
      if sanitize then
        Some (Utlb_sim.Sanitizer.create ~mode:Utlb_sim.Sanitizer.Record ())
      else None
    in
    let sink =
      Option.map
        (fun _ -> Utlb_obs.Trace_sink.create ~capacity:trace_cap ())
        trace_out
    in
    let registry =
      Option.map (fun _ -> Utlb_obs.Metrics.create ()) metrics_fmt
    in
    let obs =
      match (sink, registry) with
      | None, None -> None
      | _ ->
        Some
          (Utlb_obs.Scope.create ?sink ?metrics:registry
             ~cost_of:Obs_cost.default ())
    in
    (try E.validate config with Invalid_argument msg -> refuse msg);
    let faults_inj = injector_of ~seed faults in
    let tenancy = tenancy_of_spec tenants in
    let report =
      match (trace_in, app) with
      | None, None ->
        Printf.eprintf "utlbsim run: one of --app or --trace-in is required\n";
        exit 1
      | Some _, Some _ ->
        Printf.eprintf "utlbsim run: --app and --trace-in are exclusive\n";
        exit 1
      | None, Some app ->
        Sim_driver.run_workload ?sanitizer ?obs ?faults:faults_inj ?tenancy
          ~seed packed app
      | Some file, None ->
        let trace, skipped =
          In_channel.with_open_text file Sim_driver.load_trace_lenient
        in
        Sim_driver.run_packed ?sanitizer ?obs ?faults:faults_inj ?tenancy
          ~records_skipped:skipped ~seed ~label:(Filename.basename file)
          packed trace
    in
    print_report Cost_model.default prefetch intr report;
    (match faults_inj with
    | Some inj -> print_fault_summary inj
    | None -> ());
    (match (trace_out, sink) with
    | Some file, Some sink -> write_chrome_trace file sink
    | _ -> ());
    (match (metrics_fmt, registry) with
    | Some fmt, Some registry ->
      print_metrics fmt (Utlb_obs.Metrics.snapshot registry)
    | _ -> ());
    match sanitizer with
    | None -> ()
    | Some san ->
      if Utlb_sim.Sanitizer.is_clean san then
        print_endline "sanitizers      clean"
      else begin
        Format.printf "%a@." Utlb_sim.Sanitizer.pp san;
        exit 1
      end
  in
  cmd
    (Cmd.info "run" ~doc:"Simulate one workload and print the full report.")
    Term.(
      const run $ app_opt_arg $ trace_in_arg $ entries_arg $ assoc_arg
      $ prefetch_arg $ prepin_arg $ policy_arg $ limit_arg $ seed_arg
      $ intr_arg $ sanitize_arg $ trace_out_arg $ trace_cap_arg
      $ metrics_fmt_arg $ faults_arg $ tenants_arg)

let sweep_cmd =
  let grid_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "g"; "grid" ] ~docv:"FILE"
          ~doc:
            "Campaign grid file: `name', `seed', `workloads', \
             `mechanism NAME key=v1,v2,...', and `tenants SPEC' lines \
             (see grids/*.grid).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("csv", `Csv); ("json", `Json); ("table", `Table) ]) `Table
      & info [ "f"; "format" ] ~docv:"FORMAT"
          ~doc:"Output format: csv, json, or table.")
  in
  let domains_arg =
    Arg.(
      value & opt int 1
      & info [ "d"; "domains" ] ~docv:"N"
          ~doc:"Fan the campaign's cells out over $(docv) domains. The \
                output is byte-identical to a serial run.")
  in
  let timeline_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline-out" ] ~docv:"FILE"
          ~doc:
            "Write a sectioned text timeline of the campaign to $(docv): \
             one `# cell' header per cell (in cell order, byte-identical \
             at any $(b,--domains)) followed by its retained events. \
             Readable back by $(b,utlbcheck verify --hb).")
  in
  let timeline_cap_arg =
    Arg.(
      value
      & opt int Utlb_obs.Trace_sink.default_capacity
      & info [ "timeline-cap" ] ~docv:"N"
          ~doc:
            "Per-cell trace ring capacity in events; older events are \
             dropped.")
  in
  let write_timeline file grid outcomes =
    Out_channel.with_open_text file (fun oc ->
        let ppf = Format.formatter_of_out_channel oc in
        Format.fprintf ppf "# timeline %s@\n" grid.Utlb_exp.Grid.name;
        List.iter
          (fun (o : Utlb_exp.Runner.outcome) ->
            Format.fprintf ppf "# cell %d %s/%s@\n"
              o.Utlb_exp.Runner.cell.Utlb_exp.Grid.index
              o.Utlb_exp.Runner.cell.Utlb_exp.Grid.workload
                .Utlb_trace.Workloads.name
              (Utlb_exp.Grid.mech_label
                 o.Utlb_exp.Runner.cell.Utlb_exp.Grid.mech);
            List.iter
              (fun ev -> Format.fprintf ppf "%a@\n" Utlb_obs.Event.pp ev)
              o.Utlb_exp.Runner.events)
          outcomes;
        Format.pp_print_flush ppf ());
    Printf.printf "timeline        %d event(s) -> %s\n"
      (List.fold_left
         (fun acc (o : Utlb_exp.Runner.outcome) ->
           acc + List.length o.Utlb_exp.Runner.events)
         0 outcomes)
      file
  in
  let slo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "Certify every mechanism point of the grid against this \
             service-level objective (e.g. $(b,lat_us<=250,pinned<=8192)) \
             with the symbolic worst-case analyzer ($(b,utlbcheck bound)) \
             $(i,before) any cell runs; the campaign is refused when a \
             bound exceeds the budget (UP4x findings on stderr).")
  in
  let sweep grid_file format domains sanitize metrics_fmt faults timeline_out
      timeline_cap tenants slo =
    match Utlb_exp.Grid.of_file grid_file with
    | Error msg ->
      Printf.eprintf "%s: %s\n" grid_file msg;
      exit 1
    | Ok grid -> (
      (* --tenants overrides the grid's own directive (but not per-cell
         tenants= mechanism parameters, which stay the finest grain). *)
      let grid =
        match tenants with
        | None -> grid
        | Some spec -> (
          match Utlb_tenant.Tenant.of_string spec with
          | Ok None -> { grid with Utlb_exp.Grid.tenants = None }
          | Ok (Some _) -> { grid with Utlb_exp.Grid.tenants = Some spec }
          | Error _ -> grid (* conv already validated *))
      in
      (match grid.Utlb_exp.Grid.tenants with
      | Some spec -> (
        match Utlb_tenant.Tenant.of_string spec with
        | Ok cfg -> warn_tenant_lints cfg
        | Error _ -> ())
      | None -> ());
      (* --slo: run the symbolic worst-case analyzer over every
         mechanism point first, so an SLO-violating configuration fails
         fast instead of after a long campaign. Resolution errors
         (unregistered mechanisms, bad params) are left to Runner.run,
         which reports them identically with or without the gate. *)
      (match slo with
      | None -> ()
      | Some spec -> (
        match Utlb_check.Bound.slo_of_string spec with
        | Error msg ->
          Printf.eprintf "%s: --slo %s\n" grid_file msg;
          exit 1
        | Ok slo ->
          let findings =
            List.concat_map
              (fun (m : Utlb_exp.Grid.mech) ->
                match Utlb_exp.Grid.resolve grid m with
                | Error _ -> []
                | Ok (packed, tenants) ->
                  (Utlb_check.Bound.analyze ?faults ?tenants ~slo
                     ~label:
                       (grid.Utlb_exp.Grid.name ^ ":"
                       ^ Utlb_exp.Grid.mech_label m)
                     packed)
                    .Utlb_check.Bound.findings)
              grid.Utlb_exp.Grid.mechanisms
          in
          List.iter
            (fun f -> Format.eprintf "%a@." Utlb_check.Finding.pp f)
            findings;
          if Utlb_check.Finding.has_errors findings then begin
            Format.eprintf
              "sweep: SLO gate failed (utlbcheck bound); no cells were run@.";
            exit 1
          end));
      let observe = Option.is_some metrics_fmt in
      let trace =
        Option.map (fun _ -> timeline_cap) timeline_out
      in
      let outcomes =
        try
          Utlb_exp.Runner.run ~domains ~sanitize ~observe ?trace ?faults grid
        with Invalid_argument msg ->
          Printf.eprintf "%s: %s\n" grid_file msg;
          exit 1
      in
      (match timeline_out with
      | Some file -> write_timeline file grid outcomes
      | None -> ());
      let ppf = Format.std_formatter in
      (match format with
      | `Csv -> Utlb_exp.Emit.csv ppf outcomes
      | `Json -> Utlb_exp.Emit.json ppf outcomes
      | `Table ->
        Format.fprintf ppf "campaign %s: %d cells@.@." grid.Utlb_exp.Grid.name
          (List.length outcomes);
        Utlb_exp.Emit.matrix
          ~rows:(fun o ->
            o.Utlb_exp.Runner.cell.Utlb_exp.Grid.workload
              .Utlb_trace.Workloads.name)
          ~cols:(fun o ->
            Utlb_exp.Grid.mech_label
              o.Utlb_exp.Runner.cell.Utlb_exp.Grid.mech)
          ~metrics:
            [
              ("check", fun o -> Report.check_miss_rate o.Utlb_exp.Runner.report);
              ("NI miss", fun o -> Report.ni_miss_rate o.Utlb_exp.Runner.report);
              ("unpins", fun o -> Report.unpin_rate o.Utlb_exp.Runner.report);
            ]
          ppf outcomes;
        (* Per-cell per-tenant fairness blocks, only for cells that ran
           tenanted — untenanted tables are unchanged. Cells are kept
           separate (not merged) so aggressor/victim effects can be
           compared across partitioning modes. *)
        List.iter
          (fun o ->
            match o.Utlb_exp.Runner.report.Report.isolation with
            | None -> ()
            | Some iso ->
              Format.fprintf ppf "@.%s x %s@.%a@."
                o.Utlb_exp.Runner.cell.Utlb_exp.Grid.workload
                  .Utlb_trace.Workloads.name
                (Utlb_exp.Grid.mech_label
                   o.Utlb_exp.Runner.cell.Utlb_exp.Grid.mech)
                Utlb_tenant.Isolation.pp iso)
          outcomes);
      (match metrics_fmt with
      | None -> ()
      | Some fmt -> (
        match Utlb_exp.Runner.merged_metrics outcomes with
        | None -> ()
        | Some snapshot -> print_metrics fmt snapshot));
      match Utlb_exp.Runner.violation_summary outcomes with
      | [] ->
        if sanitize then Format.eprintf "sanitizers clean@."
      | by_code ->
        List.iter
          (fun (code, count) ->
            Format.eprintf "%s: %d violation(s) — %s@." code count
              (Option.value ~default:"unknown code"
                 (Utlb_check.Invariant.describe code)))
          by_code;
        exit 1)
  in
  cmd
    (Cmd.info "sweep"
       ~doc:
         "Run a campaign grid (workloads x mechanisms x config axes) \
          across domains and emit the results.")
    Term.(
      const sweep $ grid_arg $ format_arg $ domains_arg $ sanitize_arg
      $ metrics_fmt_arg $ faults_arg $ timeline_out_arg $ timeline_cap_arg
      $ tenants_arg $ slo_arg)

let inspect_cmd =
  let mech_arg =
    Arg.(
      value & opt string "utlb"
      & info [ "m"; "mech" ] ~docv:"NAME"
          ~doc:
            "Registered mechanism name (utlb, intr, per-process, ...; \
             see $(b,utlbsim list)).")
  in
  let param_arg =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "p"; "param" ] ~docv:"KEY=VALUE"
          ~doc:"Mechanism parameter (repeatable), e.g. -p entries=4096.")
  in
  let top_arg =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"K" ~doc:"Event classes to rank.")
  in
  let tail_arg =
    Arg.(
      value & opt int 0
      & info [ "tail" ] ~docv:"N"
          ~doc:"Also print the last $(docv) events of the timeline.")
  in
  let quantiles name h =
    let q = Utlb_sim.Stats.Histogram.quantile h in
    Printf.printf "%-15s p50=%.1fus p90=%.1fus p99=%.1fus (%d sample(s))\n"
      name (q 0.5) (q 0.9) (q 0.99)
      (Utlb_sim.Stats.Histogram.count h)
  in
  let inspect (app : Workloads.spec) mech params top tail seed faults =
    match Sim_driver.Registry.resolve ~name:mech ~params with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
    | Ok packed ->
      let sink = Utlb_obs.Trace_sink.create () in
      let registry = Utlb_obs.Metrics.create () in
      let obs =
        Utlb_obs.Scope.create ~sink ~metrics:registry
          ~cost_of:Obs_cost.default ()
      in
      let label = app.Workloads.name ^ "/" ^ mech in
      let trace = app.Workloads.generate ~seed in
      let faults_inj = injector_of ~seed faults in
      let report =
        Sim_driver.run_packed ~seed ~obs ?faults:faults_inj ~label packed
          trace
      in
      Printf.printf "cell            %s\n" report.Report.label;
      Printf.printf "lookups         %d (check=%.3f ni=%.3f unpins=%.3f)\n"
        report.Report.lookups
        (Report.check_miss_rate report)
        (Report.ni_miss_rate report) (Report.unpin_rate report);
      Printf.printf "events          %d emitted, %d dropped\n"
        (Utlb_obs.Trace_sink.emitted sink)
        (Utlb_obs.Trace_sink.dropped sink);
      let total = Utlb_obs.Scope.total_cost obs in
      Printf.printf "modelled cost   %.1f us\n" total;
      Printf.printf "costliest event classes:\n";
      List.iteri
        (fun i (kind, count, cost) ->
          if i < top then
            Printf.printf "  %2d. %-16s %8d event(s) %12.1f us  %5.1f%%\n"
              (i + 1)
              (Utlb_obs.Event.kind_name kind)
              count cost
              (if total > 0. then 100. *. cost /. total else 0.))
        (Utlb_obs.Scope.by_cost obs);
      List.iter
        (fun name ->
          match Utlb_obs.Metrics.find registry name with
          | Some (Utlb_obs.Metrics.Histogram h)
            when Utlb_sim.Stats.Histogram.count h > 0 ->
            quantiles name h
          | _ -> ())
        [ "host/lookup_us"; "host/miss_us"; "dma/fetch_us" ];
      (match faults_inj with
      | Some inj -> print_fault_summary inj
      | None -> ());
      if tail > 0 then
        Format.printf "%a@." (Utlb_obs.Export.timeline ~limit:tail) sink
  in
  cmd
    (Cmd.info "inspect"
       ~doc:
         "Replay one workload/mechanism cell under full observation and \
          rank the costliest event classes.")
    Term.(
      const inspect $ app_arg $ mech_arg $ param_arg $ top_arg $ tail_arg
      $ seed_arg $ faults_arg)

let list_cmd =
  let list () =
    print_endline "mechanisms (Sim_driver.Registry):";
    List.iter
      (fun (e : Sim_driver.Registry.entry) ->
        Printf.printf "  %-12s %s\n" e.Sim_driver.Registry.name
          e.Sim_driver.Registry.doc)
      (Sim_driver.Registry.mechanisms ());
    print_endline "";
    print_endline "workloads (Table 3 calibrated generators):";
    List.iter
      (fun (w : Workloads.spec) ->
        Printf.printf "  %-12s %-18s %s\n" w.Workloads.name
          w.Workloads.problem_size w.Workloads.description)
      Workloads.all
  in
  cmd
    (Cmd.info "list"
       ~doc:"List registered mechanisms and calibrated workloads.")
    Term.(const list $ const ())

let out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file.")

let trace_cmd =
  let generate (app : Workloads.spec) seed out =
    let trace = app.generate ~seed in
    Out_channel.with_open_text out (fun oc -> Trace.save trace oc);
    Printf.printf "wrote %d records (%d-page footprint) to %s\n"
      (Trace.length trace)
      (Trace.footprint_pages trace)
      out
  in
  cmd
    (Cmd.info "trace" ~doc:"Generate a workload trace file.")
    Term.(const generate $ app_arg $ seed_arg $ out_arg)

let in_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Trace file to analyse.")

let stats_cmd =
  let stats file =
    match In_channel.with_open_text file Trace.load with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok trace ->
      Printf.printf "records          %d\n" (Trace.length trace);
      Printf.printf "footprint        %d pages\n" (Trace.footprint_pages trace);
      Printf.printf "pages touched    %d\n" (Trace.total_pages_touched trace);
      List.iter
        (fun (pid, pages) ->
          Printf.printf "  pid %d footprint %d pages\n"
            (Utlb_mem.Pid.to_int pid) pages)
        (Trace.per_pid_footprint trace)
  in
  cmd
    (Cmd.info "stats" ~doc:"Print statistics of a saved trace file.")
    Term.(const stats $ in_arg)

let synth_cmd =
  let pattern_conv =
    Arg.enum
      [ ("sequential", `Sequential); ("strided", `Strided);
        ("cyclic", `Cyclic); ("hotcold", `Hot_cold); ("random", `Random) ]
  in
  let synth pattern pages lookups passes entries seed =
    (* The registry's defaults but the cache size, which per-process
       tables spend as their SRAM budget. A size an engine refuses is a
       usage error, as in run. *)
    let params =
      [ ("entries", string_of_int entries); ("budget", string_of_int entries) ]
    in
    let mechanisms =
      List.map
        (fun name ->
          match Sim_driver.Registry.resolve ~name ~params with
          | Ok packed -> (name, packed)
          | Error msg ->
            Printf.eprintf "utlbsim synth: %s\n" msg;
            exit 1)
        [ "utlb"; "intr"; "per-process" ]
    in
    let module P = Utlb_trace.Pattern in
    let p =
      match pattern with
      | `Sequential -> P.sequential ~pages ()
      | `Strided -> P.strided ~pairs:true ~pages ()
      | `Cyclic -> P.cyclic ~passes ~pages ()
      | `Hot_cold -> P.hot_cold ~hot_fraction:0.15 ~hot_bias:0.9 ~lookups ~pages
      | `Random -> P.uniform_random ~lookups ~pages ()
    in
    let trace = P.to_trace ~seed p in
    Printf.printf "synthetic trace: %d lookups, %d-page footprint\n"
      (Trace.length trace)
      (Trace.footprint_pages trace);
    let model = Cost_model.default in
    List.iter
      (fun (name, packed) ->
        let r = Sim_driver.run_packed ~seed ~label:name packed trace in
        let cost =
          match Sim_driver.stepper packed with
          | Stepper.Intr _ -> Report.intr_cost_us model r
          | Stepper.Hier _ | Stepper.Static _ -> Report.utlb_cost_us model r
        in
        Printf.printf
          "%-12s check=%.3f ni=%.3f unpins=%.3f cost=%.1fus\n" name
          (Report.check_miss_rate r) (Report.ni_miss_rate r)
          (Report.unpin_rate r) cost)
      mechanisms
  in
  let pattern_arg =
    Arg.(
      value
      & opt pattern_conv `Cyclic
      & info [ "pattern" ] ~docv:"PATTERN"
          ~doc:"sequential, strided, cyclic, hotcold, or random.")
  in
  let pages_arg =
    Arg.(value & opt int 2000 & info [ "pages" ] ~docv:"N" ~doc:"Pages per process.")
  in
  let lookups_arg =
    Arg.(
      value & opt int 10000
      & info [ "lookups" ] ~docv:"N" ~doc:"Lookups (hotcold/random patterns).")
  in
  let passes_arg =
    Arg.(value & opt int 4 & info [ "passes" ] ~docv:"N" ~doc:"Cyclic passes.")
  in
  cmd
    (Cmd.info "synth"
       ~doc:
         "Build a custom synthetic workload from pattern combinators and           compare mechanisms on it.")
    Term.(
      const synth $ pattern_arg $ pages_arg $ lookups_arg $ passes_arg
      $ entries_arg $ seed_arg)

let analyze_cmd =
  let analyze app seed =
    let trace = (app : Workloads.spec).generate ~seed in
    let summary = Utlb_trace.Analysis.summarize trace in
    Format.printf "%a@." Utlb_trace.Analysis.pp_summary summary;
    let hist = Utlb_trace.Analysis.reuse_distances trace in
    Format.printf "%a@." Utlb_trace.Analysis.pp_histogram hist;
    Format.printf
      "fully-associative LRU hit-ratio bound: 1K %.2f, 4K %.2f, 16K %.2f@."
      (Utlb_trace.Analysis.hit_ratio_at hist ~entries:1024)
      (Utlb_trace.Analysis.hit_ratio_at hist ~entries:4096)
      (Utlb_trace.Analysis.hit_ratio_at hist ~entries:16384)
  in
  cmd
    (Cmd.info "analyze"
       ~doc:"Locality analysis of a workload: reuse distances, footprints.")
    Term.(const analyze $ app_arg $ seed_arg)

let () =
  let info =
    Cmd.info "utlbsim" ~version:"1.0.0"
      ~doc:"Trace-driven simulator for UTLB address translation."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; sweep_cmd; inspect_cmd; list_cmd; trace_cmd; stats_cmd;
            analyze_cmd; synth_cmd;
          ]))
