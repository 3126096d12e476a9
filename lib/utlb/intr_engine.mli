(** The interrupt-based baseline (UNet-MM style, Section 6.2).

    The NI keeps the same Shared UTLB-Cache, but translations live
    {e only} in that cache: on every translation miss the NI interrupts
    the host CPU, which pins the page in kernel mode and installs the
    entry. A page whose entry is evicted from the cache — by a conflict
    or by the per-process memory limit — is immediately unpinned
    ("the interrupt-based approach always unpins a page that is evicted
    from the network interface translation cache").

    There is no user-level check, so [check_miss] is always zero.
    Satisfies {!Engine_intf.S} as the ["intr"] mechanism. *)

val mechanism : string
(** ["intr"]. *)

type config = {
  cache : Ni_cache.config;
  memory_limit_pages : int option;  (** Per-process pinned-page cap. *)
}

val default_config : config

val validate : config -> unit
(** Accept exactly the configurations {!create} accepts.
    @raise Invalid_argument on an invalid cache geometry or a negative
    memory limit. *)

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
(** With [tenancy], the arbiter is bound to the cache geometry: tenant
    set windows partition the cache, a full tenant must shrink itself
    (or be denied) before pinning on a miss, and every access/eviction
    is tagged for the report's [isolation] breakdown.
    With [sanitizer], lookups shadow-check the touched cache entries
    against the host page table (cached <=> pinned in this design) and
    process removal verifies pin/unpin balance; violations are reported
    with codes UV01-UV08 (see {!Utlb_check.Invariant}). With [obs],
    every cache hit/miss/evict, interrupt, and pin/unpin is emitted
    through the scope. With [faults], interrupt service may time out
    and be re-issued (bounded by the plan's [irq-retries]) and cache
    lines may be spuriously invalidated — repaired from the host page
    table without re-pinning, preserving cached <=> pinned. Recoveries
    are counted in the report's [fault_recoveries].
    @raise Invalid_argument as {!validate}. *)

val host : t -> Utlb_mem.Host_memory.t

val cache : t -> Ni_cache.t

val add_process : t -> Utlb_mem.Pid.t -> unit

val remove_process : t -> Utlb_mem.Pid.t -> int
(** Process exit: unpin the process's cached pages and drop its lines.
    Returns pages released. *)

val processes : t -> Utlb_mem.Pid.t list
(** Live processes, ascending pid. *)

val pinned_pages : t -> Utlb_mem.Pid.t -> int

val lookup :
  t -> pid:Utlb_mem.Pid.t -> vpn:int -> npages:int -> Engine_intf.outcome
(** @raise Invalid_argument if [npages < 1]. *)

val report : t -> label:string -> Report.t

val remove_and_report : t -> label:string -> Report.t
(** Remove every live process, then snapshot the counters. *)

val run_invariants : t -> unit
(** Full invariant sweep (no-op without a sanitizer): every cache line
    must belong to a live process, agree with the host page table, and
    be pinned; per-process pin accounting must agree between the
    tracker, the host counter, and a page-table walk; the miss
    classifier's shadow cache must be structurally consistent. *)

val stepper : config -> Stepper.semantics
(** Step-level protocol view for [utlbcheck explore]:
    cached = pinned semantics ({!Stepper.Intr}) with this config's
    cache entry count and pinned-page limit. *)

val cost_paths : config -> npages:int -> Stepper.Cost.profile
(** Worst-case priced control paths of one [npages]-page translation
    under this configuration, for [utlbcheck bound]
    ({!Engine_intf.S.cost_paths}). *)
