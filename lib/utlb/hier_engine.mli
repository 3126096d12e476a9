(** The Hierarchical-UTLB mechanism (the paper's "UTLB").

    Glues together the per-process user-level state (pin bit vector,
    replacement tracker), the device-driver state (host-resident
    hierarchical translation table, OS pin/unpin), and the NI state
    (Shared UTLB-Cache with prefetching) and executes translation
    lookups the way Figure 2's pseudo-code describes:

    + user-level check of the pin bit vector;
    + on a check miss, an ioctl that pins the missing pages (optionally
      pre-pinning [prepin] contiguous pages) and installs their frames
      in the translation table, evicting/unpinning victims chosen by the
      configured replacement policy when the per-process pinned-page
      limit is reached. The replacement tracker is kept current (a use
      per page looked up, an entry per page pinned) only when something
      can ask it for a victim: a pinned-page limit or an active
      tenancy's quota. Without either nothing reads it, and skipping
      its upkeep changes no outcome;
    + an NI lookup per page in the Shared UTLB-Cache; on a miss, the NI
      DMAs [prefetch] consecutive entries from the translation table and
      fills the cache (entries still holding the garbage frame are not
      cached).

    An optional {e backstop} sits next to the Shared UTLB-Cache, after
    two modern designs (MICRO '23, see PAPERS.md):

    + a {e victim store} (after Victima): a capacity eviction from the
      cache spills the displaced line into a FIFO store of N lines
      ({!Report.t.spills}); an NI miss first probes the store, and a
      hit recalls the line with one direct read instead of a DMA table
      walk ({!Report.t.recalls}). The miss still counts;
    + a {e RestSeg} (after Utopia): a sets x ways hash-constrained
      zone. A freshly pinned page claims a slot at pin time (a full set
      leaves it on the flexible path; placement never displaces), and
      an NI access that hits the zone resolves with one hashed probe
      before the cache is touched ({!Report.t.restseg_hits}).

    Unpinning drops the page's backstop line and process exit purges
    the process's lines, so no backstop hit can resurface a stale
    translation. A backstop sized to zero is no backstop: the engine
    then matches the plain one exactly (same RNG draws, same report).

    The engine is deterministic from its seed and accumulates a
    {!Report.t}. It is used both by the trace-driven simulator and
    (page at a time) by the online VMMC integration. It satisfies
    {!Engine_intf.S}: the driver packs it as the ["utlb"] mechanism,
    and as ["victima"] and ["utopia"] with a backstop
    ({!Victima_engine}, {!Utopia_engine}). *)

val mechanism : string
(** ["utlb"]. *)

type backstop =
  | No_backstop
  | Victim_store of int  (** Victim-store lines; 0 disables the store. *)
  | Restseg of { sets : int; ways : int }
      (** RestSeg geometry; [sets] must be a power of two when
          [ways > 0], and [ways = 0] disables the zone. *)

type config = {
  cache : Ni_cache.config;
  prefetch : int;  (** Entries fetched per NI miss, >= 1. *)
  prepin : int;  (** Contiguous pages pinned per check miss, >= 1. *)
  policy : Replacement.policy;
  memory_limit_pages : int option;  (** Per-process pinned-page cap. *)
  backstop : backstop;
}

val default_config : config
(** The paper's implementation defaults: 8 K-entry direct-mapped cache
    with index offsetting, no prefetch, no pre-pin, LRU, no limit, no
    backstop. *)

val validate : config -> unit
(** Accept exactly the configurations {!create} accepts; the registry
    calls it so checkers reject what the engine would refuse.
    @raise Invalid_argument on a non-positive prefetch/prepin, a
    negative memory limit, an invalid cache geometry, a negative
    backstop size, or a non-power-of-two RestSeg set count. *)

type t

val create :
  ?host:Utlb_mem.Host_memory.t ->
  ?sanitizer:Utlb_sim.Sanitizer.t ->
  ?obs:Utlb_obs.Scope.t ->
  ?faults:Utlb_fault.Injector.t ->
  ?tenancy:Utlb_tenant.Arbiter.t ->
  seed:int64 ->
  config ->
  t
(** With [tenancy], the arbiter is bound to the Shared UTLB-Cache
    geometry: tenant set windows partition the cache, pin requests are
    admitted against the tenant quota (the process first shrinks
    itself, then the shortfall is denied and the pages stay unpinned —
    safe by design), and every lookup/NI access/eviction is tagged with
    its tenant for the report's [isolation] breakdown.
    A private 256 MB host is created when none is supplied. With
    [sanitizer], the engine shadows its own execution: every lookup
    re-checks the touched cache entries against the host translation,
    NI cache fills reject garbage/unpinned frames, and process removal
    verifies pin/unpin balance. Violations are reported to the
    sanitizer (codes UV01-UV08, see {!Utlb_check.Invariant}). With
    [obs], every check miss, pre-pin, pin/unpin, cache hit/miss/evict,
    entry fetch, and table-swap interrupt is emitted through the scope.
    With [faults], NI misses may absorb injected DMA fetch failures
    (retried with exponential backoff; an exhausted budget falls back
    to interrupt-path service of the faulting entry), spurious cache
    invalidations, and table swap-outs — every recovery is counted in
    the report's [fault_recoveries]. A recall skips the walk and so
    the fault plane's swap and DMA draws. The sanitizer also audits
    every backstop line at {!run_invariants}.
    @raise Invalid_argument as {!validate}. *)

val config : t -> config

val host : t -> Utlb_mem.Host_memory.t

val cache : t -> Ni_cache.t

val classifier : t -> Miss_classifier.t

val add_process : t -> Utlb_mem.Pid.t -> unit
(** Idempotent. Allocates the process's translation table and user
    lookup state. *)

val remove_process : t -> Utlb_mem.Pid.t -> int
(** Process exit: unpin every page the process still holds, drop its
    Shared UTLB-Cache lines, backstop lines and translation table.
    Returns the number of pages released. Unknown processes release
    0. *)

val processes : t -> Utlb_mem.Pid.t list
(** Live processes, ascending pid. *)

val table : t -> Utlb_mem.Pid.t -> Translation_table.t
(** @raise Invalid_argument for an unknown process. *)

val pinned_pages : t -> Utlb_mem.Pid.t -> int

val lookup :
  t -> pid:Utlb_mem.Pid.t -> vpn:int -> npages:int -> Engine_intf.outcome
(** Translate one communication buffer. Unknown processes are admitted
    on first use. A RestSeg hit counts as an NI hit; a recall counts as
    an NI miss with zero entries fetched.
    @raise Invalid_argument if [npages < 1]. *)

val is_pinned : t -> pid:Utlb_mem.Pid.t -> vpn:int -> bool

val translate : t -> pid:Utlb_mem.Pid.t -> vpn:int -> int option
(** What the NI would read for this page right now (cache or table),
    without side effects. *)

val report : t -> label:string -> Report.t
(** Snapshot of the accumulated counters. *)

val remove_and_report : t -> label:string -> Report.t
(** Remove every live process (auditing the pin ledger when a
    sanitizer is present), then snapshot the counters. *)

val run_invariants : t -> unit
(** Full invariant sweep (no-op without a sanitizer): every Shared
    UTLB-Cache line must agree with its process's translation table and
    the host page table and point at a pinned, non-garbage frame; every
    process's pin accounting must agree across the user bit vector, the
    host's incremental counter, and a full page-table walk; every
    backstop line must map a pinned, resident page with the host's
    frame; and the miss classifier's shadow cache must be structurally
    consistent.
    Intended at quiescent points (end of run, between phases). *)

val stepper : config -> Stepper.semantics
(** Step-level protocol view for [utlbcheck explore]: host-table
    semantics ({!Stepper.Hier}) with this config's pre-pin window,
    pinned-page limit and backstop kind. *)

val cost_paths : config -> npages:int -> Stepper.Cost.profile
(** Worst-case priced control paths of one [npages]-page translation
    under this configuration, for [utlbcheck bound]
    ({!Engine_intf.S.cost_paths}). *)
