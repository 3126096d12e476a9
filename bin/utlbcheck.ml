(* utlbcheck: static analysis of UTLB simulation configurations and
   workloads.

   Two passes share one finding pipeline and exit-code policy:

   - lint (the default command): key=value config files and the
     built-in paper defaults, reporting UCxxx findings before any
     simulation runs;
   - verify: the static protocol verifier (UP0x) over workload traces,
     built-in workloads, and whole campaign grids, plus the
     happens-before race detector (UP1x) over exported event
     timelines;
   - explore: exhaustive small-scope model checking of the pin
     protocol (UP2x) with replayable counterexamples;
   - bound: the symbolic worst-case analyzer (UP4x), gating sound
     latency/pinned/tenant bounds against a declared SLO.

   Exit status: 0 clean, 1 when any error finding was reported (or,
   with --strict, any warning), 2 when an input could not be read. *)

open Cmdliner
module Finding = Utlb_check.Finding
module Catalogue = Utlb_check.Catalogue
module Config_file = Utlb_check.Config_file
module Config_lint = Utlb_check.Config_lint
module Protocol = Utlb_check.Protocol
module Hb = Utlb_check.Hb
module Explore = Utlb_check.Explore
module Bound = Utlb_check.Bound
module Stepper = Utlb.Stepper
module Sim_driver = Utlb.Sim_driver

(* {2 Shared options and reporting} *)

type format = Text | Json

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", Text); ("json", Json) ]) Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:
          "Report format: $(b,text) (one finding per line plus a summary) \
           or $(b,json) (an array of finding objects, no summary).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Treat warnings as errors for the exit code.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ] ~doc:"Print nothing; report only the exit code.")

(* The mechanism spec of verify --mech and explore/bound --engine:
   "name,k=v,...", resolved through the registry, so every subcommand
   accepts and refuses the same specs the simulator does. *)
let resolve_spec spec =
  let rec split acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match String.index_opt p '=' with
      | None -> Error (Printf.sprintf "mechanism parameter %S is not k=v" p)
      | Some i ->
        split
          (( String.trim (String.sub p 0 i),
             String.sub p (i + 1) (String.length p - i - 1) )
          :: acc)
          rest)
  in
  match String.split_on_char ',' spec with
  | [] -> Error "empty mechanism spec"
  | name :: params ->
    Result.bind (split [] params) (fun params ->
        Sim_driver.Registry.resolve ~name:(String.trim name) ~params)

(* First error in spec order. *)
let resolve_specs specs =
  List.fold_right
    (fun spec acc ->
      Result.bind (resolve_spec spec) (fun p -> Result.map (List.cons p) acc))
    specs (Ok [])

(* Every registered mechanism at its defaults. *)
let registered () =
  List.filter_map
    (fun (e : Sim_driver.Registry.entry) ->
      Result.to_option (Sim_driver.Registry.resolve ~name:e.name ~params:[]))
    (Sim_driver.Registry.mechanisms ())

let report ~format ~quiet ~inputs findings =
  if not quiet then begin
    match format with
    | Json ->
      Format.printf "%a@." Finding.pp_json_list (Finding.by_severity findings)
    | Text ->
      List.iter
        (fun f -> Format.printf "%a@." Finding.pp f)
        (Finding.by_severity findings);
      Format.printf "utlbcheck: %d error(s), %d warning(s) in %d input(s)@."
        (Finding.errors findings)
        (Finding.warnings findings)
        inputs
  end

(* {2 lint} *)

let check_file path =
  match Config_file.parse_file path with
  | Error msg ->
    Format.eprintf "utlbcheck: %s@." msg;
    None
  | Ok (config, parse_findings) ->
    Some (parse_findings @ Config_lint.lint_config config)

let files_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE" ~doc:"Configuration files to check.")

let defaults_arg =
  Arg.(
    value & flag
    & info [ "defaults" ]
        ~doc:
          "Also lint the built-in paper-default configurations and cost \
           model (a self-check; must be clean).")

let explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"CODE"
        ~doc:
          "Print the description of one finding code — config syntax \
           (UC0xx), configuration lint (UC1xx), runtime violation (UVxx), \
           protocol verifier (UP0x), race detector (UP1x), exhaustive \
           exploration (UP2x), or worst-case bound (UP4x) — and exit \
           (status 2 for an unknown code). Codes are case-insensitive.")

(* Shared by every subcommand so `--explain CODE` behaves identically
   everywhere: print the catalogue entry and exit 0, or exit 2 on an
   unknown code. [None] when no --explain was requested. *)
let explain_exit = function
  | None -> None
  | Some code -> (
    match Catalogue.describe code with
    | Some text ->
      print_endline text;
      Some 0
    | None ->
      Format.eprintf "utlbcheck: unknown code %S@." code;
      Some 2)

let lint_main files defaults strict explain quiet format =
  match explain_exit explain with
  | Some code -> code
  | None ->
    if files = [] && not defaults then begin
      Format.eprintf
        "utlbcheck: nothing to check (give config files or --defaults)@.";
      2
    end
    else begin
      let unreadable = ref false in
      let findings =
        List.concat_map
          (fun path ->
            match check_file path with
            | Some fs -> fs
            | None ->
              unreadable := true;
              [])
          files
        @ (if defaults then Config_lint.lint_defaults () else [])
      in
      report ~format ~quiet
        ~inputs:(List.length files + if defaults then 1 else 0)
        findings;
      if !unreadable then 2 else Finding.exit_code ~strict findings
    end

let lint_term =
  Term.(
    const lint_main $ files_arg $ defaults_arg $ strict_arg $ explain_arg
    $ quiet_arg $ format_arg)

(* {2 verify} *)

let verify_inputs_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"INPUT"
        ~doc:
          "Inputs to verify: campaign grid files ($(i,*.grid), every cell \
           is checked) or saved workload trace files (one record per \
           line).")

let config_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Verify traces against the engine semantics this configuration \
           file declares (its syntax findings are included).")

let mech_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mech" ] ~docv:"SPEC"
        ~doc:
          "Verify traces against a registered mechanism point, e.g. \
           $(b,utlb) or $(b,intr,entries=1024,limit-mb=1). Overrides \
           $(b,--config).")

let workloads_arg =
  Arg.(
    value & flag
    & info [ "workloads" ]
        ~doc:
          "Also verify the built-in calibrated workload generators (the \
           paper's seven applications at the default seed).")

let hb_arg =
  Arg.(
    value & opt_all string []
    & info [ "hb" ] ~docv:"TIMELINE"
        ~doc:
          "Run the happens-before race detector over this saved event \
           timeline (single-run or the sectioned form \
           $(b,utlbsim sweep --timeline-out) writes). Repeatable.")

let tenants_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tenants" ] ~docv:"SPEC"
        ~doc:
          "Check $(b,--hb) timelines against this tenancy discipline \
           (same grammar as $(b,utlbsim --tenants)): cross-tenant \
           evictions under a strict spec are flagged UP30, cross-tenant \
           unpin/fetch interleavings UP31. The spec itself is linted \
           (UC180-UC184).")

let verify_main inputs config mech workloads hbs tenants strict explain quiet
    format =
  match explain_exit explain with
  | Some code -> code
  | None ->
  let usage_error = ref None in
  let unreadable = ref false in
  let base_findings = ref [] in
  (* The tenancy spec is itself an input: a bad spec is a UC180
     finding, a parsable one is linted (UC181-UC184) and then drives
     the UP30/UP31 isolation checks over --hb timelines. *)
  let tenant_config =
    match Option.map Utlb_tenant.Tenant.of_string tenants with
    | None | Some (Ok None) -> None
    | Some (Ok (Some cfg)) ->
      base_findings :=
        !base_findings
        @ List.map
            (fun (code, msg) ->
              Finding.v ~context:"--tenants" ~severity:Finding.Warning ~code
                msg)
            (Utlb_tenant.Tenant.validate cfg);
      Some cfg
    | Some (Error msg) ->
      base_findings :=
        !base_findings
        @ [
            Finding.vf ~context:"--tenants" ~code:"UC180" "%s (%s)" msg
              Utlb_tenant.Tenant.grammar;
          ];
      None
  in
  let sems =
    match (mech, config) with
    | Some spec, _ -> (
      match resolve_spec spec with
      | Ok packed -> [ Sim_driver.stepper packed ]
      | Error msg ->
        usage_error := Some msg;
        [])
    | None, Some path -> (
      match Config_file.parse_file path with
      | Error msg ->
        usage_error := Some msg;
        []
      | Ok (cfg, parse_findings) ->
        base_findings := parse_findings;
        [ Sim_driver.stepper (Config_file.packed cfg) ])
    | None, None -> Protocol.defaults
  in
  match !usage_error with
  | Some msg ->
    Format.eprintf "utlbcheck: %s@." msg;
    2
  | None ->
    if inputs = [] && hbs = [] && not workloads then begin
      Format.eprintf
        "utlbcheck: nothing to verify (give grids, traces, --workloads, or \
         --hb timelines)@.";
      2
    end
    else begin
      let input_findings =
        List.concat_map
          (fun path ->
            if Filename.check_suffix path ".grid" then
              match Utlb_exp.Grid.of_file path with
              | Error msg ->
                Format.eprintf "utlbcheck: %s@." msg;
                unreadable := true;
                []
              | Ok grid -> Protocol.verify_grid grid
            else
              List.concat_map
                (fun sem ->
                  match Protocol.verify_file sem path with
                  | Error msg ->
                    Format.eprintf "utlbcheck: %s@." msg;
                    unreadable := true;
                    []
                  | Ok fs ->
                    let context = Some (path ^ ":" ^ Stepper.mechanism sem) in
                    List.map
                      (fun (f : Finding.t) -> { f with Finding.context })
                      fs)
                sems)
          inputs
      in
      let workload_findings =
        if not workloads then []
        else
          List.concat_map
            (fun spec ->
              List.concat_map
                (fun sem -> Protocol.verify_workload sem spec)
                sems)
            Utlb_trace.Workloads.all
      in
      let hb_findings =
        List.concat_map
          (fun path ->
            match Hb.analyze_file ?tenants:tenant_config path with
            | Error msg ->
              Format.eprintf "utlbcheck: %s@." msg;
              unreadable := true;
              []
            | Ok fs -> fs)
          hbs
      in
      let findings =
        !base_findings @ input_findings @ workload_findings @ hb_findings
      in
      let inputs_count =
        List.length inputs + List.length hbs
        + if workloads then List.length Utlb_trace.Workloads.all else 0
      in
      report ~format ~quiet ~inputs:inputs_count findings;
      if !unreadable then 2 else Finding.exit_code ~strict findings
    end

let verify_term =
  Term.(
    const verify_main $ verify_inputs_arg $ config_arg $ mech_arg
    $ workloads_arg $ hb_arg $ tenants_arg $ strict_arg $ explain_arg
    $ quiet_arg $ format_arg)

(* {2 explore} *)

let engine_arg =
  Arg.(
    value & opt_all string []
    & info [ "engine" ] ~docv:"SPEC"
        ~doc:
          "Explore this registered mechanism point, e.g. $(b,utlb) or \
           $(b,intr,entries=2,limit-mb=1). Repeatable; the default is \
           every registered mechanism at its paper defaults. Overrides \
           $(b,--config).")

let explore_config_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Explore the engine semantics this configuration file declares \
           (its syntax findings are included).")

let trace_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-in" ] ~docv:"FILE"
        ~doc:
          "Trace mode: explore every interleaving of the protocol steps of \
           exactly this saved trace's records (in record order) instead of \
           synthesizing request programs.")

let int_opt ~name ~docv ~doc ~default =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let procs_arg =
  int_opt ~name:"procs" ~docv:"N"
    ~doc:"Processes issuing requests (synthesis mode)."
    ~default:Stepper.default_scope.Stepper.procs

let pages_arg =
  int_opt ~name:"pages" ~docv:"P"
    ~doc:"Distinct pages the synthesized requests draw from."
    ~default:Stepper.default_scope.Stepper.pages

let sets_arg =
  int_opt ~name:"sets" ~docv:"S"
    ~doc:"Modelled NI-cache capacity in lines."
    ~default:Stepper.default_scope.Stepper.sets

let requests_arg =
  int_opt ~name:"requests" ~docv:"R"
    ~doc:"Requests each process issues (synthesis mode)."
    ~default:Stepper.default_scope.Stepper.requests

let page_cap_arg =
  int_opt ~name:"page-cap" ~docv:"C"
    ~doc:
      "Pages of one request that are micro-stepped individually (wider \
       requests still run their full admission checks)."
    ~default:Stepper.default_scope.Stepper.page_cap

let depth_arg =
  int_opt ~name:"depth" ~docv:"D"
    ~doc:
      "Depth cap on explored action sequences; hitting it is reported, \
       never silent."
    ~default:Explore.default_config.Explore.max_depth

let budget_arg =
  int_opt ~name:"budget" ~docv:"K"
    ~doc:
      "Transition budget for the whole search; hitting it is reported, \
       never silent."
    ~default:Explore.default_config.Explore.budget

let mutant_conv =
  let parse s =
    match Stepper.mutant_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown mutant %S (expected one of %s)" s
             (String.concat ", " (List.map Stepper.mutant_name Stepper.mutants))))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Stepper.mutant_name m))

let mutant_arg =
  Arg.(
    value
    & opt (some mutant_conv) None
    & info [ "mutant" ] ~docv:"NAME"
        ~doc:
          "Seed one protocol bug and explore the mutated protocol: \
           $(b,blocking-evict) (UP20), $(b,leak-unpin) (UP21), \
           $(b,no-shootdown) (UP22), or $(b,early-unpin) (UP23). The \
           explorer must find the seeded bug's code.")

let ce_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ce-dir" ] ~docv:"DIR"
        ~doc:
          "Write each minimized counterexample as a standard trace file \
           $(i,DIR)/ce-<engine>-<CODE>-<n>.trace (replayable by \
           $(b,utlbsim run --trace-in), re-checkable by $(b,utlbcheck \
           verify), re-explorable with $(b,--trace-in)).")

let load_program path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Utlb_trace.Trace.load ic with
      | Ok trace -> Ok (Explore.program_of_trace trace)
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

let explore_main engines config trace_in procs pages sets requests page_cap
    depth budget mutant ce_dir explain strict quiet format =
  match explain_exit explain with
  | Some code -> code
  | None -> (
    let ( let* ) r f =
      match r with
      | Error msg ->
        Format.eprintf "utlbcheck: %s@." msg;
        2
      | Ok v -> f v
    in
    let base_findings = ref [] in
    let* engines =
      match (engines, config) with
      | _ :: _, _ -> resolve_specs engines
      | [], Some path -> (
        match Config_file.parse_file path with
        | Error msg -> Error msg
        | Ok (cfg, parse_findings) ->
          base_findings := parse_findings;
          Ok [ Config_file.packed cfg ])
      | [], None -> Ok (registered ())
    in
    let* program =
      match trace_in with
      | None -> Ok None
      | Some path -> Result.map Option.some (load_program path)
    in
    let scope =
      {
        Stepper.procs;
        pages;
        sets;
        requests;
        page_cap;
        program;
        mutant;
      }
    in
    let econfig = { Explore.scope; max_depth = depth; budget } in
    let results =
      List.map
        (fun packed ->
          Explore.explore ~config:econfig (Sim_driver.stepper packed))
        engines
    in
    (* Stats go to stderr so --format json stays a pure finding array
       on stdout; a truncated search is flagged even under --quiet
       (silent truncation would read as a proof). *)
    List.iter
      (fun (r : Explore.result) ->
        if not quiet then Format.eprintf "utlbcheck explore: %a@." Explore.pp_stats r;
        match r.Explore.stats.Explore.truncation with
        | Explore.Exhaustive -> ()
        | t ->
          Format.eprintf
            "utlbcheck explore: warning: %s: search truncated by the %s \
             cap; the scope was not exhausted@."
            r.Explore.label
            (Explore.truncation_label t))
      results;
    let* () =
      match ce_dir with
      | None -> Ok ()
      | Some dir -> (
        try
          List.iter
            (fun (r : Explore.result) ->
              let counts = Hashtbl.create 8 in
              List.iter
                (fun (ce : Explore.counterexample) ->
                  let n =
                    1
                    + (try Hashtbl.find counts ce.Explore.code
                       with Not_found -> 0)
                  in
                  Hashtbl.replace counts ce.Explore.code n;
                  let path =
                    Filename.concat dir
                      (Printf.sprintf "ce-%s-%s-%d.trace" r.Explore.label
                         ce.Explore.code n)
                  in
                  let oc = open_out path in
                  List.iter
                    (fun line ->
                      output_string oc line;
                      output_char oc '\n')
                    (Explore.counterexample_lines r ce);
                  close_out oc;
                  if not quiet then
                    Format.eprintf "utlbcheck explore: wrote %s@." path)
                r.Explore.counterexamples)
            results;
          Ok ()
        with Sys_error msg -> Error msg)
    in
    let findings =
      !base_findings
      @ List.concat_map (fun (r : Explore.result) -> r.Explore.findings) results
    in
    report ~format ~quiet ~inputs:(List.length results) findings;
    Finding.exit_code ~strict findings)

let explore_term =
  Term.(
    const explore_main $ engine_arg $ explore_config_arg $ trace_in_arg
    $ procs_arg $ pages_arg $ sets_arg $ requests_arg $ page_cap_arg
    $ depth_arg $ budget_arg $ mutant_arg $ ce_dir_arg $ explain_arg
    $ strict_arg $ quiet_arg $ format_arg)

(* {2 bound} *)

let bound_inputs_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"GRID"
        ~doc:
          "Campaign grid files: every mechanism point of every grid is \
           certified (with the grid's own tenancy spec).")

let bound_engine_arg =
  Arg.(
    value & opt_all string []
    & info [ "engine" ] ~docv:"SPEC"
        ~doc:
          "Bound this registered mechanism point, e.g. $(b,utlb) or \
           $(b,victima,entries=1024,prepin=8). Repeatable; with no grids, \
           engines, or $(b,--config), every registered mechanism is \
           bounded at its paper defaults.")

let bound_config_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Bound the engine and cost model this configuration file \
           declares (its syntax findings are included).")

let slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Service-level objective to gate against, e.g. \
           $(b,lat_us<=250,pinned<=8192): a worst-case single-translation \
           latency budget in microseconds and/or a node-wide pinned-page \
           budget. Exceeding either is an UP40 error.")

let npages_arg =
  int_opt ~name:"npages" ~docv:"N"
    ~doc:
      "Widest buffer (pages per lookup) the bounds must cover (default \
       32, the cost tables' last anchor; wider buffers extrapolate \
       linearly). $(b,--workloads) overrides this with the widest buffer \
       any shipped workload actually issues."
    ~default:32

let bound_procs_arg =
  int_opt ~name:"procs" ~docv:"N"
    ~doc:"Processes the node-wide pinned bound multiplies by."
    ~default:8

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Charge this fault plan's worst case to every bound (same \
           grammar as $(b,utlbsim --faults)): each NI miss walk absorbs \
           the full DMA retry/backoff chain and each interrupt its full \
           re-issue chain. A chain past the one-second ceiling is an \
           UP41 error.")

let bound_tenants_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tenants" ] ~docv:"SPEC"
        ~doc:
          "Bound per-tenant pinned populations and quota headroom under \
           this tenancy discipline (same grammar as $(b,utlbsim \
           --tenants)). A quota below one maximal buffer is an UP42 \
           error.")

let bound_workloads_arg =
  Arg.(
    value & flag
    & info [ "workloads" ]
        ~doc:
          "Size $(b,--npages) from the built-in calibrated workloads: the \
           widest buffer any of the paper's seven applications issues at \
           the default seed.")

let witness_arg =
  Arg.(
    value & flag
    & info [ "witness" ]
        ~doc:
          "Ask the exhaustive explorer for a concrete schedule realizing \
           the pinned bound at its small scope (plain DFS, no DPOR). A \
           found schedule upgrades the scoped bound to CONFIRMED; an \
           exhausted search without one reports PLAUSIBLE. Status goes \
           to stderr.")

let witness_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "witness-dir" ] ~docv:"DIR"
        ~doc:
          "Write each witness as a standard trace file \
           $(i,DIR)/witness-<engine>.trace (status and schedule as \
           comments, then the issued requests — replayable by \
           $(b,utlbsim run --trace-in)). Implies $(b,--witness).")

(* "utlb[entries=1024]" -> "utlb-entries-1024": grid mech labels carry
   punctuation that does not belong in a file name. *)
let sanitize_label label =
  String.concat "-"
    (List.filter
       (fun s -> s <> "")
       (String.split_on_char '/'
          (String.map
             (fun c ->
               match c with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' -> c
               | _ -> '/')
             label)))

let workloads_npages () =
  List.fold_left
    (fun acc (spec : Utlb_trace.Workloads.spec) ->
      Array.fold_left
        (fun m (r : Utlb_trace.Record.t) -> max m r.Utlb_trace.Record.npages)
        acc
        (Utlb_trace.Trace.records
           (spec.Utlb_trace.Workloads.generate
              ~seed:Utlb.Sim_driver.default_seed)))
    1 Utlb_trace.Workloads.all

let bound_main grids engines config slo npages procs faults tenants workloads
    witness witness_dir explain strict quiet format =
  match explain_exit explain with
  | Some code -> code
  | None -> (
    let ( let* ) r f =
      match r with
      | Error msg ->
        Format.eprintf "utlbcheck: %s@." msg;
        2
      | Ok v -> f v
    in
    let base_findings = ref [] in
    let unreadable = ref false in
    let* slo =
      match slo with
      | None -> Ok Bound.no_slo
      | Some spec -> Bound.slo_of_string spec
    in
    let* faults =
      match faults with
      | None -> Ok Utlb_fault.Plan.empty
      | Some spec -> Utlb_fault.Plan.of_string spec
    in
    let* cli_tenants =
      match tenants with
      | None -> Ok None
      | Some spec -> Utlb_tenant.Tenant.of_string spec
    in
    let npages = if workloads then workloads_npages () else npages in
    let analyze ?model ?label ~tenants packed =
      Bound.analyze ?model ~faults ?tenants ~slo ~npages ~processes:procs
        ?label packed
    in
    (* Grid certification: every mechanism point of every grid, under
       the grid's own tenancy spec (a mechanism-level [tenants=] param
       overrides the grid-level directive, as in the runner). *)
    let grid_bounds =
      List.concat_map
        (fun path ->
          match Utlb_exp.Grid.of_file path with
          | Error msg ->
            Format.eprintf "utlbcheck: %s@." msg;
            unreadable := true;
            []
          | Ok grid ->
            List.filter_map
              (fun (m : Utlb_exp.Grid.mech) ->
                let label =
                  Printf.sprintf "%s:%s" grid.Utlb_exp.Grid.name
                    (Utlb_exp.Grid.mech_label m)
                in
                match Utlb_exp.Grid.resolve grid m with
                | Ok (packed, tenants) -> Some (analyze ~label ~tenants packed)
                | Error msg ->
                  Format.eprintf "utlbcheck: %s: %s@." label msg;
                  unreadable := true;
                  None)
              grid.Utlb_exp.Grid.mechanisms)
        grids
    in
    let* engine_bounds =
      Result.map
        (List.map (fun packed -> analyze ~tenants:cli_tenants packed))
        (resolve_specs engines)
    in
    let* config_bounds =
      match config with
      | None -> Ok []
      | Some path -> (
        match Config_file.parse_file path with
        | Error msg -> Error msg
        | Ok (cfg, parse_findings) ->
          base_findings := parse_findings;
          Ok
            [
              analyze ~model:(Config_file.cost_model cfg) ~tenants:cli_tenants
                (Config_file.packed cfg);
            ])
    in
    let default_bounds =
      if grids <> [] || engines <> [] || config <> None then []
      else
        List.map
          (fun packed -> analyze ~tenants:cli_tenants packed)
          (registered ())
    in
    let bounds = grid_bounds @ engine_bounds @ config_bounds @ default_bounds in
    if bounds = [] && not !unreadable then begin
      Format.eprintf "utlbcheck: nothing to bound@.";
      2
    end
    else begin
      (* The witness search is scoped reachability: CONFIRMED means a
         concrete schedule inside the explorer's small scope realizes
         the scoped instance of the pinned bound; PLAUSIBLE means the
         search exhausted (or capped) without reaching it. Status goes
         to stderr so --format json stays a pure bound array. *)
      let* () =
        if not (witness || witness_dir <> None) then Ok ()
        else
          try
            List.iter
              (fun (b : Bound.t) ->
                let scope = Explore.default_config.Explore.scope in
                let target = Bound.witness_target scope b in
                let w =
                  Explore.pinned_witness ~target b.Bound.semantics
                in
                if not quiet then
                  Format.eprintf
                    "utlbcheck bound: witness %s: %s (peak %d of target %d, \
                     %d states)@."
                    b.Bound.label
                    (if w.Explore.confirmed then "CONFIRMED" else "PLAUSIBLE")
                    w.Explore.peak w.Explore.target w.Explore.states;
                match witness_dir with
                | None -> ()
                | Some dir ->
                  let path =
                    Filename.concat dir
                      (Printf.sprintf "witness-%s.trace"
                         (sanitize_label b.Bound.label))
                  in
                  let oc = open_out path in
                  List.iter
                    (fun line ->
                      output_string oc line;
                      output_char oc '\n')
                    (Explore.witness_lines ~label:b.Bound.label w);
                  close_out oc;
                  if not quiet then
                    Format.eprintf "utlbcheck bound: wrote %s@." path)
              bounds;
            Ok ()
          with Sys_error msg -> Error msg
      in
      let findings =
        !base_findings @ List.concat_map (fun (b : Bound.t) -> b.Bound.findings) bounds
      in
      (match format with
      | Json -> if not quiet then Format.printf "%a@." Bound.pp_json_list bounds
      | Text ->
        if not quiet then begin
          List.iter (fun b -> Format.printf "%a@." Bound.pp b) bounds;
          report ~format ~quiet ~inputs:(List.length bounds) findings
        end);
      if !unreadable then 2 else Finding.exit_code ~strict findings
    end)

let bound_term =
  Term.(
    const bound_main $ bound_inputs_arg $ bound_engine_arg $ bound_config_arg
    $ slo_arg $ npages_arg $ bound_procs_arg $ faults_arg $ bound_tenants_arg
    $ bound_workloads_arg $ witness_arg $ witness_dir_arg $ explain_arg
    $ strict_arg $ quiet_arg $ format_arg)

(* {2 Command tree} *)

let lint_cmd =
  let doc = "Lint simulation configuration files (the default command)" in
  Cmd.v (Cmd.info "lint" ~doc) lint_term

let verify_cmd =
  let doc = "Statically verify workload traces, grids, and event timelines" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The protocol verifier abstractly interprets workload traces \
         against the declared engine semantics — a pin-state lattice per \
         (process, page) plus pinned-population bounds — and reports \
         traces that must or may violate the pin protocol with UP0x codes \
         (pin balance vs the memory limit, garbage-frame reuse past the \
         translation table, DMA into self-evicted pages, per-process \
         table overflow, pre-pin divergence windows). Grid inputs check \
         every campaign cell with the exact traces and parameters the \
         campaign would run.";
      `P
        "The happens-before pass ($(b,--hb)) replays an exported event \
         timeline with one vector clock per actor (user processes, the \
         kernel, NI, DMA, bus, interrupt) and synchronisation edges from \
         interrupt delivery, DMA/bus completion, and lookup completion; \
         conflicting accesses to the same (process, page) that no edge \
         orders are reported with UP1x codes.";
      `S Manpage.s_exit_status;
      `P
        "0 on a clean run; 1 when any error finding was reported (with \
         $(b,--strict), also on warnings); 2 when an input could not be \
         read or the command line was unusable.";
    ]
  in
  Cmd.v (Cmd.info "verify" ~doc ~man) verify_term

let explore_cmd =
  let doc =
    "Exhaustively model-check the pin protocol at a small scope"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Enumerates every interleaving of the pin protocol's individual \
         steps — pin, unpin, table publish, NI fetch, eviction, interrupt \
         delivery, DMA use — for a small configuration (by default 2 \
         processes x 2 pages x 4 NI-cache lines, 2 requests each) against \
         the step-level semantics the selected engines derive from their \
         configurations. Dynamic partial-order reduction (sleep sets plus \
         a persistent-set heuristic keyed on (page, process) \
         independence) and canonical state hashing keep the state space \
         tractable; the stats line reports how much of the naive frontier \
         was pruned.";
      `P
        "Violations combine the admission codes of $(b,verify) (UP01-UP05, \
         found on issue transitions) with exploration-only codes: UP20 \
         deadlock, UP21 unreachable-unpin leak, UP22 non-quiescent final \
         state, UP23 in-flight invalidation race. Every first (code, \
         process) violation is minimized to a counterexample trace \
         ($(b,--ce-dir)) that $(b,utlbsim run --trace-in) replays, \
         $(b,utlbcheck verify) flags with the same UP0x code, and \
         $(b,--trace-in) re-explores to the same UP2x code.";
      `P
        "$(b,--mutant) seeds one known protocol bug (a blocking eviction, \
         a leaked unpin, a skipped shootdown, an early unpin) to validate \
         the detectors: the explorer must find the seeded code \
         deterministically.";
      `S Manpage.s_exit_status;
      `P
        "0 on a clean (exhausted or truncated-but-clean) search; 1 when \
         any violation was found (with $(b,--strict), also on warnings); \
         2 when an input could not be read or the command line was \
         unusable. Depth/budget truncation is always reported on stderr, \
         even under $(b,--quiet).";
    ]
  in
  Cmd.v (Cmd.info "explore" ~doc ~man) explore_term

let bound_cmd =
  let doc =
    "Derive sound worst-case latency and resource bounds, gated by an SLO"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Abstract-interprets each selected engine's worst-case control \
         paths — hit, miss, walk, and fault-retry chains, including \
         Victima's spill-recall and Utopia's RestSeg-fallback paths — \
         over the paper's cost model, without running any simulation, \
         and derives sound upper bounds on single-translation latency, \
         pinned-page population (per process and node-wide), and \
         per-tenant quota headroom. A $(b,--faults) plan charges its \
         worst-case DMA retry/backoff chain to every walk and its full \
         interrupt re-issue chain to every dispatch.";
      `P
        "Findings use UP4x codes: UP40 SLO violation, UP41 unbounded \
         retry cost, UP42 tenant starvation, UP43 eviction chain wider \
         than the cache, UP44 dead (unreachable) configuration. \
         $(b,--witness) asks the exhaustive explorer for a concrete \
         schedule realizing the pinned bound at its small scope — \
         CONFIRMED when found (the witness trace replays under \
         $(b,utlbsim run --trace-in)), PLAUSIBLE otherwise.";
      `P
        "$(b,utlbsim sweep --slo) runs this pass over a campaign grid \
         before any cell executes, so an SLO-violating configuration \
         fails fast instead of after a long campaign.";
      `S Manpage.s_exit_status;
      `P
        "0 when every bound meets the SLO; 1 when any error finding was \
         reported (with $(b,--strict), also on warnings); 2 when an \
         input could not be read or the command line was unusable.";
    ]
  in
  Cmd.v (Cmd.info "bound" ~doc ~man) bound_term

let cmd =
  let doc = "Static analysis for the UTLB simulator" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Checks simulation configurations before any simulation runs: \
         cache geometry (power-of-two sets, associativity multiples), \
         prefetch and pre-pin windows against cache and memory-limit \
         capacity, per-process SRAM carving, and cost-table consistency \
         (negative or non-monotone latencies, NI hit cost at or above the \
         host fetch cost, DMA cost above the miss cost it is part of). \
         Invoked without a subcommand, arguments are config files to \
         lint.";
      `P
        "$(b,utlbcheck verify) runs the static protocol verifier and the \
         happens-before race detector over workload traces, campaign \
         grids, and event timelines. $(b,utlbcheck explore) exhaustively \
         model-checks every interleaving of the protocol's individual \
         steps at a small scope, with dynamic partial-order reduction and \
         replayable minimized counterexamples. $(b,utlbcheck bound) \
         derives sound worst-case latency and resource bounds \
         symbolically and gates them against a declared SLO.";
      `P
        "Each finding carries a stable machine-readable code: UC0xx for \
         config-file syntax, UC1xx for semantic lints, UP0x/UP1x for the \
         verify passes, UP2x for exploration, UP4x for worst-case bounds. \
         Runtime sanitizer violations use UVxx codes. $(b,--explain) \
         $(i,CODE) describes any of them; LINTS.md lists the full \
         catalogue.";
      `S Manpage.s_exit_status;
      `P
        "0 on a clean run; 1 when any error finding was reported (with \
         $(b,--strict), also on warnings); 2 when an input file could not \
         be read or the command line was unusable.";
    ]
  in
  Cmd.group ~default:lint_term
    (Cmd.info "utlbcheck" ~doc ~man)
    [ lint_cmd; verify_cmd; explore_cmd; bound_cmd ]

(* Cmd.group treats a leading positional as a (possibly unknown)
   sub-command name, which would break the historical `utlbcheck
   file.conf` form; route such invocations to the lint command
   explicitly. *)
let argv =
  match Array.to_list Sys.argv with
  | exe :: first :: rest
    when first <> "lint" && first <> "verify" && first <> "explore"
         && first <> "bound"
         && (String.length first = 0 || first.[0] <> '-') ->
    Array.of_list (exe :: "lint" :: first :: rest)
  | _ -> Sys.argv

(* One exit-code policy for every subcommand: 0 clean, 1 findings,
   2 usage/IO error. Cmdliner splits command-line problems between
   `Parse (bad option value, 124 by default) and `Term (unknown
   option); both are usage errors here, so both map to 2. *)
let () =
  exit
    (match Cmd.eval_value ~argv cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> 125)
