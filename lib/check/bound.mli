(** Symbolic worst-case latency and resource analyzer: the
    [utlbcheck bound] pass.

    Where {!Protocol} checks the traces we happen to run and
    {!Explore} enumerates a small scope exhaustively, this pass proves
    budgets {e without running anything}: it abstract-interprets the
    worst-case control paths each engine enumerates over its
    {!Utlb.Stepper} semantics ({!Utlb.Engine_intf.S.cost_paths})
    against the paper's {!Utlb.Cost_model}, and derives sound upper
    bounds on

    - single-translation latency — the maximum over the engine's
      priced hit / miss / walk / fault-retry paths (including
      Victima's spill-recall and Utopia's RestSeg-fallback chains),
      with every {!Utlb.Stepper.Cost.Walk} absorbing the fault plan's
      worst-case DMA retry/backoff chain and every
      {!Utlb.Stepper.Cost.Intr} its worst re-issue chain;
    - pinned-page population — per process, the larger of the
      semantics' capacity ({!Utlb.Stepper.capacity}: an in-flight
      buffer may break a smaller limit, the UP01 scenario) and the
      widest pre-pin span, clamped to the virtual address space; and
    - per-tenant quota headroom — each tenant's pin quota measured
      symbolically against the worst single buffer and the tenant's
      own population bound.

    Findings use the UP4x codes ({!Catalogue.bounds}): UP40 SLO
    violation, UP41 unbounded retry cost, UP42 tenant starvation, UP43
    eviction chain wider than the cache, UP44 dead (unreachable)
    configuration.

    Soundness: each engine's paths dominate its Section 6.2 cost
    equation at worst-case rates (see {!Utlb.Stepper.Cost}), so for
    any trace the empirically observed average lookup cost, pinned
    population, and per-tenant denial count never exceed the bound —
    the differential suite in [test/test_bound.ml] asserts exactly
    this across all five engines and the paper workloads. *)

(** {2 SLO specs} *)

type slo = { lat_us : float option; pinned : int option }
(** A service-level objective: a worst-case single-translation latency
    budget in microseconds and/or a node-wide pinned-page budget.
    [None] fields are unconstrained. *)

val no_slo : slo

val slo_of_string : string -> (slo, string) result
(** Parse ["lat_us<=N,pinned<=M"] (comma- or semicolon-separated;
    either key may be omitted). [N] must be a finite non-negative
    number: an infinite budget could never fire. *)

val slo_to_string : slo -> string

(** {2 Bounds} *)

type pinned_bound = {
  per_process : int;  (** Sound per-process pinned-page bound. *)
  processes : int;  (** Processes the node-wide bound multiplies by. *)
  total : int;  (** [per_process * processes]. *)
  bounded : bool;
      (** [false] when no memory limit binds and the bound degrades to
          the virtual address space. *)
}

type tenant_bound = {
  tenant : string;
  quota : int option;
  pinned_cap : int;
      (** Sound bound on the tenant's pinned population: its quota
          clamped by its processes' own population bounds. *)
  headroom : int;
      (** [pinned_cap] minus one maximal buffer — how much of the cap
          survives the worst single request. Negative headroom is the
          UP42 starvation condition. *)
}

type path_cost = { path : string; us : float }

type t = {
  label : string;
  semantics : Utlb.Stepper.semantics;
  npages : int;  (** Widest buffer the bounds cover. *)
  paths : path_cost list;  (** Priced paths, most expensive first. *)
  lat_us : float;  (** Worst path: the sound latency bound. *)
  fault_us : float;
      (** Worst-case fault surcharge one miss walk absorbs (already
          included in [paths] and [lat_us]). *)
  pinned : pinned_bound;
  tenants : tenant_bound list;
  findings : Finding.t list;  (** UP4x, sorted by severity. *)
}

val analyze :
  ?model:Utlb.Cost_model.t ->
  ?faults:Utlb_fault.Plan.t ->
  ?tenants:Utlb_tenant.Tenant.config ->
  ?slo:slo ->
  ?npages:int ->
  ?processes:int ->
  ?label:string ->
  Utlb.Engine_intf.packed ->
  t
(** Derive the bounds of one engine configuration. [npages]
    (default 32, the cost tables' last anchor) is the widest buffer
    certified; [processes] (default 8) scales the node-wide pinned
    bound. Deterministic and simulation-free. *)

val witness_target : Utlb.Stepper.scope -> t -> int
(** The pinned bound clamped to an exploration scope: what a concrete
    schedule inside [scope] can actually realize ([procs] processes,
    at most [pages] distinct pages each). {!Explore.pinned_witness}
    searching to this target CONFIRMS the scoped instance of the
    bound. *)

val pp : Format.formatter -> t -> unit
(** One human-readable block: the worst path, latency and pinned
    bounds, fault surcharge, and per-tenant caps. *)

val pp_json : Format.formatter -> t -> unit
(** One JSON object carrying the full bound (paths, pinned, tenants,
    findings). *)

val pp_json_list : Format.formatter -> t list -> unit
