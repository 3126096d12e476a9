(** Domain-parallel campaign execution.

    Cells of a {!Grid.t} are independent simulations, so the runner
    fans them out over OCaml 5 domains with a work-stealing index and
    collects results into cell order. Determinism is by construction:

    - every workload trace is generated {e once}, in the calling
      domain, before any worker starts, and shared immutably;
    - every cell derives its own RNG seed from the grid seed and its
      index ({!Grid.cell_seed}), so no RNG state is shared;
    - results land in a slot per cell, so the emitted campaign is
      byte-identical whatever the domain count or completion order.

    An exception in any cell (e.g. a sanitizer in [Raise] mode) is
    re-raised in the caller after all workers join — the first one in
    cell order wins. *)

type outcome = {
  cell : Grid.cell;
  report : Utlb.Report.t;
  violations : Utlb_sim.Sanitizer.violation list;
      (** Empty unless the campaign ran with [~sanitize:true]. *)
  metrics : Utlb_obs.Metrics.Snapshot.t option;
      (** [None] unless the campaign ran with [~observe:true]. *)
  events : Utlb_obs.Event.t list;
      (** The cell's retained event trace, in emission order; empty
          unless the campaign ran with [~trace]. *)
}

type trace_cache
(** A caller-held trace memo extending the per-run memoisation across
    runs: traces are keyed by (physical workload spec, seed), so bench
    reps and grid variants over the same calibrated workloads generate
    each trace once. Consulted and extended only in the calling domain,
    before any worker starts. *)

val trace_cache : unit -> trace_cache

val run :
  ?domains:int ->
  ?sanitize:bool ->
  ?observe:bool ->
  ?trace:int ->
  ?faults:Utlb_fault.Plan.t ->
  ?cache:trace_cache ->
  Grid.t ->
  outcome list
(** Execute every cell of the grid. [domains] (default 1) is clamped
    to the cell count; [sanitize] (default false) threads a fresh
    recording {!Utlb_sim.Sanitizer} through each cell and returns its
    violations — see {!Utlb_check.Invariant} for the code catalogue.
    [observe] (default false) threads a fresh {!Utlb_obs.Scope} with a
    private metric registry (priced by {!Utlb.Obs_cost}) through each
    cell and snapshots it into [metrics]. [trace] attaches a private
    {!Utlb_obs.Trace_sink} of that capacity to each cell and returns
    its retained events in [events] — the raw material of sectioned
    timeline files ([utlbsim sweep --timeline-out]) and the
    happens-before pass ([utlbcheck verify --hb]). [faults] threads a
    private
    {!Utlb_fault.Injector} over the plan through each cell, seeded
    from the cell seed — injected faults (and hence the whole
    campaign) are byte-identical at any domain count. [cache] shares
    generated traces across runs (see {!trace_cache}).

    Cells governed by a tenancy spec ({!Grid.resolve}: a [tenants=]
    mechanism parameter or the grid's [tenants] directive) each compile
    a private {!Utlb_tenant.Arbiter} and run tenanted: quotas and cache
    partitions are enforced, and the per-tenant accounting lands in the
    cell report's [isolation] field. Under [observe], each tenant's
    completed miss-rate windows additionally stream into the cell
    registry as [tenant/<name>/window_miss_rate] summaries.
    @raise Invalid_argument on an unregistered mechanism name,
    malformed mechanism parameters, a config the engine refuses, or a
    malformed tenants spec (before any cell runs), with
    {!Grid.resolve}'s message prefixed by ["Runner.run: "]. *)

val merged_report : outcome list -> Utlb.Report.t
(** {!Utlb.Report.merge} over the outcomes' reports — campaign-wide
    totals. *)

val merged_metrics : outcome list -> Utlb_obs.Metrics.Snapshot.t option
(** {!Utlb_obs.Metrics.Snapshot.merge} over the outcomes' snapshots,
    in cell order — deterministic for any domain count. [None] when
    the campaign did not observe. *)

val violation_summary : outcome list -> (string * int) list
(** Violations across all cells, grouped by code, sorted by code. *)
