(** Static protocol verifier: an abstract interpreter over workload
    traces.

    The runtime sanitizers (UV01-UV08) only catch a pin-protocol
    violation when a particular simulated run happens to trip it. This
    pass symbolically executes a {!Utlb_trace.Record} stream against
    an engine's pin-protocol model {e before} any simulation. The model
    is the engine's own {!Utlb.Stepper.semantics}
    ({!Utlb.Sim_driver.stepper} of a resolved mechanism or of
    {!Config_file.packed}), the one [utlbcheck explore] and [bound] run
    on too. Each record goes through {!Utlb.Stepper.admission}, the only
    copy of the UP01-UP05 rules ({!Catalogue.protocol}); this module
    adds an abstract pin-state lattice per (process, page) —
    [Garbage <= Pinned _ <= Top], with [Unpinned] for pages a process
    removal provably released — plus a per-process \[lo, hi\] interval
    on the pinned-page population, and reports each rule once per
    (code, process):

    - [UP01] {e pin balance vs memory limit} (must, hier/intr with a
      limit; under intr only a limit below the cache size): a buffer
      larger than the limit forces the engine to hold more pinned pages
      than the limit allows — in-flight pages are protected from
      eviction, so the declared limit is broken;
    - [UP02] {e garbage-frame reuse} (must): the buffer extends past
      the translation table, so the NI would translate through entries
      that do not exist — the garbage-frame scheme dereferences
      garbage;
    - [UP03] {e DMA into unpinned memory} (must, intr): a buffer wider
      than the Shared UTLB-Cache self-conflicts by pigeonhole; under
      cached <=> pinned, filling the tail evicts — and {e unpins} —
      the head while its transfer is in flight (static UV03/UV05);
    - [UP04] {e table-capacity overflow} (must, per-process): more
      distinct processes than carved tables, or a buffer wider than
      one table share — the whole span is protected, so eviction
      cannot free an index and the engine aborts;
    - [UP05] {e NI-cache/host-table divergence window} (may, hier):
      the buffer fits the memory limit but its pre-pin window does
      not, so freshly pre-pinned pages may be unpinned — and their NI
      entries invalidated — while the same miss's prefetch is
      streaming them (the hazard UV04/UV05 guard at runtime);
    - [UP00] a trace line that does not parse ({!verify_file} only).

    Must-findings are [Error], may-findings are [Warning]; both carry
    the 1-based trace line number. Labels come from
    {!Utlb.Stepper.mechanism}. *)

val defaults : Utlb.Stepper.semantics list
(** The three paper-default engines (utlb, intr, per-process at
    {!Config_file.default}). *)

(** {2 Abstract state} *)

type page = Garbage | Pinned of int | Unpinned | Top
(** Per-(process, page) lattice value: [Garbage] — the table entry
    holds the garbage frame (initial, or after an invalidation);
    [Pinned n] — pinned with count [n]; [Unpinned] — provably released
    by a process removal; [Top] — unknown (a possible replacement
    victim). *)

type state

val init : Utlb.Stepper.semantics -> state

val step : state -> line:int -> Utlb_trace.Record.t -> Finding.t list
(** Abstractly execute one record: {!Utlb.Stepper.admission}, then the
    span (and, for hier, its pre-pin window) joins into the page
    lattice and the \[lo, hi\] pinned interval; a population bound
    overflow demotes possible victims to [Top]. Returned findings
    carry [line] but no context (the driver adds it). *)

val page_state : state -> pid:int -> vpn:int -> page

val pinned_interval : state -> pid:int -> int * int
(** Bounds on the process's pinned-page population ([0, 0] for a
    process the trace never mentioned). *)

(** {2 Drivers} *)

val verify_records :
  ?context:string -> Utlb.Stepper.semantics ->
  (int * Utlb_trace.Record.t) list -> Finding.t list
(** Run {!step} over [(line, record)] pairs in order and collect
    findings, stamping [context]. *)

val verify_trace :
  ?context:string -> Utlb.Stepper.semantics -> Utlb_trace.Trace.t ->
  Finding.t list
(** {!verify_records} over a generated trace, lines numbered from 1 in
    record order. *)

val verify_file :
  Utlb.Stepper.semantics -> string -> (Finding.t list, string) result
(** Verify a saved trace file: blank and [#] lines are skipped,
    unparseable records become UP00 findings (real line numbers), and
    parsed records run through {!step}. [Error] only when the file
    cannot be read. *)

val verify_workload :
  ?seed:int64 -> Utlb.Stepper.semantics -> Utlb_trace.Workloads.spec ->
  Finding.t list
(** Generate the workload's trace (default seed
    {!Utlb.Sim_driver.default_seed}, the seed [utlbsim run] uses) and
    verify it; context is ["workload/mechanism"]. *)

val verify_grid : Utlb_exp.Grid.t -> Finding.t list
(** Verify every cell of a campaign: each workload trace is generated
    once (grid seed, as {!Utlb_exp.Runner} does) and checked against
    the semantics of each mechanism point ({!Utlb_exp.Grid.resolve},
    the runner's own resolver); verdicts are computed once per distinct
    (trace, semantics) pair but reported per cell, with the cell label
    as context. A point that does not resolve becomes a UP00
    finding. *)
