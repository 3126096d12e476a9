(** The common shape of a translation engine.

    Every translation engine in the repository — the Hierarchical-UTLB
    ({!Hier_engine}, also registered with a backstop as
    {!Victima_engine} and {!Utopia_engine}), the interrupt-based
    baseline ({!Intr_engine}), and the Per-process tables
    ({!Pp_engine}) — implements {!S}. A {!packed} value is the only way
    to name an engine: the driver, the campaign layer, the config
    files and the VMMC cluster all dispatch over it, so a new design
    (say, a two-level NI cache) becomes usable by every experiment in
    the repo the moment it satisfies the signature and registers
    itself with {!Sim_driver.Registry}. *)

type outcome = {
  check_miss : bool;  (** The user-level check found an unpinned page. *)
  pin_calls : int;
  pages_pinned : int;
  unpin_calls : int;
  pages_unpinned : int;
  ni_misses : int;  (** Pages the NI did not find in its cache. *)
  entries_fetched : int;  (** Translation entries DMAed into the NI. *)
  interrupts : int;  (** Host interrupts the NI raised. *)
}
(** What one lookup adds to the {!Report} counters: [check_miss] to
    [check_misses], [ni_misses] to [ni_page_misses], every other field
    to the counter of its name. Summed over a run, the outcomes are
    those counters. Every engine returns this one shape, so a caller
    such as the VMMC cluster can price any engine's lookup. *)

let unchanged =
  {
    check_miss = false;
    pin_calls = 0;
    pages_pinned = 0;
    unpin_calls = 0;
    pages_unpinned = 0;
    ni_misses = 0;
    entries_fetched = 0;
    interrupts = 0;
  }
(** The outcome of a lookup that changed no counter. Engines return
    this one shared value instead of allocating a record of zeros. *)

module type S = sig
  val mechanism : string
  (** Stable lower-case mechanism name, e.g. ["utlb"]. Used as the
      default report label and as the registry key. *)

  type config

  val default_config : config

  val validate : config -> unit
  (** Accept exactly the configurations {!create} accepts: [create]
      runs it first, and {!Sim_driver.Registry} runs it on every
      registered mechanism's parameters, so a checker that only builds
      a config rejects what the engine would refuse.
      @raise Invalid_argument naming the offending parameter. *)

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
  (** Deterministic from [seed]. With [sanitizer] the engine shadows
      its execution with invariant checks (see {!Utlb_check.Invariant}
      for the violation catalogue). With [obs] the engine emits its
      internal events (check misses, pins/unpins, NI cache traffic,
      interrupts) through the scope; observation never changes the
      simulation. With [faults] the engine draws injected faults from
      the plan and recovers from them (recoveries are counted in
      {!Report}); an injector over an empty plan consumes no
      randomness and changes nothing. With [tenancy] (an active
      {!Utlb_tenant.Arbiter}) the engine binds the arbiter to its NI
      cache geometry, applies per-tenant cache windows and pin quotas,
      tags every lookup/access/eviction with its tenant, and attaches
      the per-tenant {!Utlb_tenant.Isolation} breakdown to its
      {!Report}; the inert arbiter (or omitting it) changes nothing. *)

  val add_process : t -> Utlb_mem.Pid.t -> unit
  (** Admit a process, allocating its translation state. *)

  val remove_process : t -> Utlb_mem.Pid.t -> int
  (** Process exit: release everything the process still pins and drop
      its translation state. Returns pages released; unknown processes
      release 0. *)

  val processes : t -> Utlb_mem.Pid.t list
  (** Live (admitted, not yet removed) processes, ascending pid. *)

  val lookup : t -> pid:Utlb_mem.Pid.t -> vpn:int -> npages:int -> outcome
  (** Translate one communication buffer.
      @raise Invalid_argument if [npages < 1]. *)

  val report : t -> label:string -> Report.t
  (** Snapshot of the accumulated counters. *)

  val remove_and_report : t -> label:string -> Report.t
  (** Tear down every live process (releasing its pins, with the
      sanitizer auditing the pin ledger) and then snapshot: the
      end-of-run sequence of a whole simulated node. *)

  val run_invariants : t -> unit
  (** Full invariant sweep; a no-op without a sanitizer. *)

  val stepper : config -> Stepper.semantics
  (** Step-level view of the pin protocol this configuration runs:
      the capacity parameters {!Stepper} needs to enumerate the
      engine's individual protocol transitions. Used by
      [utlbcheck explore] to model-check any registered engine
      without disturbing the whole-trace entry points above. *)

  val cost_paths : config -> npages:int -> Stepper.Cost.profile
  (** Worst-case control paths one translation of an [npages]-page
      buffer can take under this configuration, as priced protocol
      steps ({!Stepper.Cost}), plus the NI-side geometry the bound
      analyzer audits. Each path must dominate the corresponding terms
      of the engine's cost equation at worst-case rates, so
      [utlbcheck bound] derives a sound single-translation latency
      bound from the {!Cost_model} alone — no simulation. *)
end

type packed =
  | Packed : (module S with type config = 'c) * 'c -> packed
      (** A mechanism bundled with the configuration to create it —
          the unit of dispatch for {!Sim_driver}, [lib/exp], the config
          files and the VMMC cluster. *)
