(** A whole node running Per-process UTLBs — the design point the paper
    could not evaluate ("we have not compared the per-process UTLB with
    [the] Shared UTLB-Cache approach because we lack multiple program
    traces", Section 7). The synthetic workload generators remove that
    obstacle, so this engine exists to run exactly that comparison.

    A fixed NI SRAM budget is split evenly into one translation table
    per process (the static allocation drawback of Section 3.2). A
    process whose communication footprint exceeds its table share
    evicts — and therefore {e unpins} — on every capacity miss, which is
    the behaviour the Shared UTLB-Cache was invented to avoid.

    Lookups never miss on the NI (the table is indexed directly), so
    the per-lookup cost is the user-level tree lookup, plus pinning on
    check misses, plus the unpinning forced by table capacity.
    Satisfies {!Engine_intf.S} as the ["per-process"] mechanism. *)

val mechanism : string
(** ["per-process"]. *)

type config = {
  sram_budget_entries : int;
      (** Total NI SRAM translation entries across all processes. *)
  processes : int;  (** Number of per-process tables to carve. *)
  policy : Replacement.policy;
}

val default_config : config
(** 8192 entries (the paper's 32 KB) split over 5 processes, LRU. *)

val entries_per_process : config -> int
(** Static geometry: the table share each process would be carved,
    [sram_budget_entries / processes] — [0] when [processes <= 0]
    ({!create} would raise). Lets static analyses size the per-process
    tables without building an engine. *)

val validate : config -> unit
(** Accept exactly the configurations {!create} accepts.
    @raise Invalid_argument unless [processes > 0] and the budget gives
    each process a non-empty share. *)

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
(** With [sanitizer], {!run_invariants} cross-checks every per-process
    table against the host (see {!Per_process.self_check}). With
    [faults], table-entry installs after a pinning lookup may absorb
    injected DMA failures (retried; an exhausted budget falls back to
    an interrupt-path install) — recoveries are counted in the
    report's [fault_recoveries].
    @raise Invalid_argument as {!validate}. *)

val table_entries_per_process : t -> int

val add_process : t -> Utlb_mem.Pid.t -> unit
(** Admit a process, carving its table from the SRAM budget.
    Idempotent for known processes.
    @raise Invalid_argument if more processes appear than tables. *)

val remove_process : t -> Utlb_mem.Pid.t -> int
(** Process exit: evict (and unpin) everything in the process's table
    and free it. Returns pages released; unknown processes release 0.
    With a sanitizer, audits the pin ledger (UV01/UV08). *)

val processes : t -> Utlb_mem.Pid.t list
(** Live processes, ascending pid. *)

val lookup :
  t -> pid:Utlb_mem.Pid.t -> vpn:int -> npages:int -> Engine_intf.outcome
(** Processes are admitted on first use, up to [config.processes].
    Pages past the 20-bit address space are never pinned and always
    miss the check, as on the other engines (UP02).
    @raise Invalid_argument if more processes appear than tables. *)

val report : t -> label:string -> Report.t
(** [ni_page_misses] is always 0; pins/unpins reflect table capacity
    behaviour. *)

val remove_and_report : t -> label:string -> Report.t
(** Remove every live process, then snapshot the counters. *)

val occupancy : t -> Utlb_mem.Pid.t -> int

val run_invariants : t -> unit
(** Full invariant sweep over every admitted process (no-op without a
    sanitizer); violations are reported with code UV08. *)

val stepper : config -> Stepper.semantics
(** Step-level protocol view for [utlbcheck explore]: static-share
    semantics ({!Stepper.Static}) over {!entries_per_process}. *)

val cost_paths : config -> npages:int -> Stepper.Cost.profile
(** Worst-case priced control paths of one [npages]-page translation
    under this configuration, for [utlbcheck bound]
    ({!Engine_intf.S.cost_paths}). *)
