module Sanitizer = Utlb_sim.Sanitizer
module Workloads = Utlb_trace.Workloads
module Sim_driver = Utlb.Sim_driver
module Metrics = Utlb_obs.Metrics
module Scope = Utlb_obs.Scope
module Fault = Utlb_fault
module Tenant = Utlb_tenant.Tenant
module Arbiter = Utlb_tenant.Arbiter

type outcome = {
  cell : Grid.cell;
  report : Utlb.Report.t;
  violations : Sanitizer.violation list;
  metrics : Metrics.Snapshot.t option;
  events : Utlb_obs.Event.t list;
}

(* Trace memoisation. Keyed by physical spec identity plus seed, not
   name: [Workloads.scaled] variants may share a name while generating
   different traces, whereas the toplevel calibrated specs are shared
   values. A caller-held cache extends the memoisation across runs
   (bench reps, grid variants over the same workloads); it is consulted
   and extended only in the calling domain before any worker starts,
   and only read afterwards. *)
type trace_cache = (Workloads.spec * int64 * Utlb_trace.Trace.t) list ref

let trace_cache () = ref []

let generate_traces ?cache ~seed cells =
  let store = match cache with Some c -> c | None -> ref [] in
  Array.iter
    (fun (c : Grid.cell) ->
      let spec = c.Grid.workload in
      if
        not
          (List.exists
             (fun (s, sd, _) -> s == spec && Int64.equal sd seed)
             !store)
      then store := (spec, seed, spec.Workloads.generate ~seed) :: !store)
    cells;
  !store

let trace_of traces ~seed (spec : Workloads.spec) =
  let rec find = function
    | [] ->
      invalid_arg
        (Printf.sprintf
           "Runner.trace_of: no cached trace for workload %S at seed %Ld \
            (the trace_cache was built for different cells)"
           spec.Workloads.name seed)
    | (s, sd, trace) :: rest ->
      if s == spec && Int64.equal sd seed then trace else find rest
  in
  find traces

let run ?(domains = 1) ?(sanitize = false) ?(observe = false) ?trace ?faults
    ?cache grid =
  let cells = Array.of_list (Grid.cells grid) in
  (* Resolve every mechanism and tenancy up front: registry, parameter
     and tenants-spec errors surface here, in the calling domain,
     before any simulation. Each cell compiles its own arbiter later:
     arbiters hold mutable per-tenant counters, so sharing one across
     cells (or domains) would corrupt the accounting. *)
  let resolved =
    Array.map
      (fun (c : Grid.cell) ->
        match Grid.resolve grid c.Grid.mech with
        | Ok r -> r
        | Error e -> invalid_arg ("Runner.run: " ^ e))
      cells
  in
  let traces = generate_traces ?cache ~seed:grid.Grid.seed cells in
  let n = Array.length cells in
  let results = Array.make n None in
  let run_cell i =
    let c = cells.(i) in
    let sanitizer =
      if sanitize then Some (Sanitizer.create ~mode:Sanitizer.Record ())
      else None
    in
    (* One private registry per cell: snapshots are taken in the worker
       domain and merged in cell order by the caller, so the campaign's
       merged metrics are byte-identical whatever the domain count. *)
    let registry = if observe then Some (Metrics.create ()) else None in
    (* Like the registry, one private sink per cell: events are read in
       the worker and carried to the caller in cell order, so exported
       timelines are byte-identical whatever the domain count. *)
    let sink =
      Option.map
        (fun capacity -> Utlb_obs.Trace_sink.create ~capacity ())
        trace
    in
    let obs =
      if registry = None && sink = None then None
      else
        Some
          (Scope.create ?sink ?metrics:registry
             ~cost_of:Utlb.Obs_cost.default ())
    in
    let label =
      c.Grid.workload.Workloads.name ^ "/" ^ Grid.mech_label c.Grid.mech
    in
    let cell_seed = Grid.cell_seed grid c in
    (* One private injector per cell, seeded from the cell seed (xor'd
       so the fault stream is distinct from the engine's RNG stream):
       injections land identically whatever the domain count. *)
    let injector =
      Option.map
        (fun plan ->
          Fault.Injector.create
            ~seed:(Int64.logxor cell_seed 0xFA17_FA17L)
            plan)
        faults
    in
    let tenancy =
      Option.map
        (fun cfg ->
          let arb = Arbiter.create cfg in
          (* Stream each tenant's completed miss-rate windows into the
             cell's registry: the summary's variance is the
             interference signal the partitioned/unpartitioned sweep
             compares, per tenant, without retaining the windows. *)
          (match registry with
          | None -> ()
          | Some reg ->
            let summaries =
              Array.init (Tenant.tenants cfg) (fun ti ->
                  Metrics.summary reg
                    (Printf.sprintf "tenant/%s/window_miss_rate"
                       (Tenant.policy cfg ti).Tenant.name))
            in
            Arbiter.set_on_window arb (fun ~tenant ~rate ->
                if tenant >= 0 && tenant < Array.length summaries then
                  Metrics.Stats.Summary.observe summaries.(tenant) rate));
          arb)
        (snd resolved.(i))
    in
    let report =
      Sim_driver.run_packed ~seed:cell_seed ?sanitizer ?obs ?faults:injector
        ?tenancy ~label
        (fst resolved.(i))
        (trace_of traces ~seed:grid.Grid.seed c.Grid.workload)
    in
    {
      cell = c;
      report;
      violations =
        (match sanitizer with
        | None -> []
        | Some san -> Sanitizer.violations san);
      metrics = Option.map Metrics.snapshot registry;
      events =
        (match sink with
        | None -> []
        | Some sink -> Utlb_obs.Trace_sink.events sink);
    }
  in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* Capture the worker-domain backtrace with the exception so
           the re-raise in the calling domain can preserve it. *)
        results.(i) <-
          Some
            (try Ok (run_cell i)
             with e -> Error (e, Printexc.get_raw_backtrace ()));
        loop ()
      end
    in
    loop ()
  in
  let workers = max 1 (min domains n) in
  let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Array.to_list results
  |> List.map (function
       | Some (Ok o) -> o
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)

let merged_report outcomes =
  Utlb.Report.merge (List.map (fun o -> o.report) outcomes)

let merged_metrics outcomes =
  match List.filter_map (fun o -> o.metrics) outcomes with
  | [] -> None
  | snapshots -> Some (Metrics.Snapshot.merge snapshots)

let violation_summary outcomes =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun o ->
      List.iter
        (fun (v : Sanitizer.violation) ->
          Hashtbl.replace counts v.Sanitizer.code
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v.Sanitizer.code)))
        o.violations)
    outcomes;
  Hashtbl.fold (fun code count acc -> (code, count) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
