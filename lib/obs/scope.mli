(** The [?obs] hook threaded through engines and NIC components.

    A scope bundles an optional {!Trace_sink} (timeline), an optional
    {!Metrics} registry (aggregates), and an optional per-event cost
    model. Components hold a [Scope.t option] exactly like the
    existing [?sanitizer] wiring: absent means every probe is a no-op.

    Two timebases coexist:
    - Engine-less driver runs ({!Utlb.Sim_driver}) call {!tick} once
      per trace record; {!emit} then stamps events on a modelled clock
      that {!emit} itself advances by each event's modelled cost.
    - Discrete-event components (DMA, bus, interrupts) call {!emit_at}
      with real simulated time and do not move the modelled clock.

    {!tick} also delimits per-lookup attribution: when the next tick
    (or {!finish}) closes a lookup, its accumulated modelled cost is
    observed into the [host/lookup_us] histogram — and into
    [host/miss_us] as well if the lookup crossed a miss path
    (check miss, NI miss, or interrupt). *)

type t

val create :
  ?sink:Trace_sink.t ->
  ?metrics:Metrics.t ->
  ?cost_of:(Event.kind -> count:int -> float) ->
  unit ->
  t
(** With [metrics], the standard schema (see {!preregister}) is
    registered immediately so snapshots are structurally identical
    across runs that exercised different code paths.

    [cost_of] must be a pure function of (kind, count): the scope calls
    it once per pair with a small count and reuses that price for every
    later event of the pair ({!Utlb.Obs_cost} qualifies). *)

val preregister : Metrics.t -> unit
(** Register the standard metric schema without creating a scope: one
    counter per event kind named ["<component>/<kind>"], magnitude
    counters ([host/pages_pinned], [host/pages_unpinned],
    [host/pages_prepinned], [ni/entries_fetched], [dma/bytes],
    [svm/diff_bytes]), and latency histograms [host/lookup_us],
    [host/miss_us], [dma/fetch_us]. Idempotent. [dma/fetch_us] stays
    registered but empty: no component emits a DMA entry fetch any
    more, and the schema keeps its shape for the snapshots that pin
    it. Fault-plane kinds
    ({!Event.is_fault_kind}) are deliberately not part of the schema;
    see {!Event.is_fault_kind}. *)

val sink : t -> Trace_sink.t option

val metrics : t -> Metrics.t option

val now_us : t -> float
(** Modelled clock used by {!emit}. *)

val set_time : t -> float -> unit

val tick : t -> pid:int -> vpn:int -> npages:int -> unit -> unit
(** Start attributing a new lookup (closing the previous one) and emit
    its [Lookup] event ([count] = [npages]). [vpn] and [npages] are
    plain ints, so a driver calling [tick] per record boxes nothing;
    {!Probe.no_vpn} and {!Probe.no_count} stand for "none". *)

val finish : t -> unit
(** Close the last open lookup; call once at end of run. *)

val emit : t -> ?pid:int -> ?vpn:int -> ?count:int -> Event.kind -> unit
(** Emit at the modelled clock, attributed to the current lookup, and
    advance the clock by the event's modelled cost. [pid] defaults to
    the pid of the last {!tick}. *)

val emit_at :
  t -> at_us:float -> pid:int -> ?vpn:int -> ?count:int -> Event.kind -> unit
(** Emit at an explicit (engine) timestamp; the modelled clock is not
    advanced. *)

val observe_engine : t -> Utlb_sim.Engine.t -> pid:int -> unit
(** Install a dispatch observer on [engine] emitting one [Dispatch]
    event per fired simulation event (independent of the sanitizer's
    monitor slot). *)

(** {2 Probe buffer}

    The batching backend of {!Probe}: probes append events to a flat
    per-scope buffer ([buffer_emit] with {!emit} semantics on the
    modelled clock, [buffer_emit_at] with {!emit_at} semantics at an
    engine timestamp) and [flush] replays them in order. Every direct
    operation above flushes first, so buffering is invisible to
    readers; components flush at their own dispatch boundaries. The
    plain-int [vpn]/[count] use the trace sink's sentinel defaults
    (-1 / 0) in place of the option-typed interface. *)

val buffer_emit : t -> Event.kind -> pid:int -> vpn:int -> count:int -> unit

val buffer_emit_at :
  t -> Event.kind -> at_us:float -> pid:int -> vpn:int -> count:int -> unit

val flush : t -> unit

val kind_count : t -> Event.kind -> int

val kind_cost : t -> Event.kind -> float
(** Accumulated modelled cost (µs) of this kind; [0.] without
    [cost_of]. *)

val by_cost : t -> (Event.kind * int * float) list
(** Seen kinds as [(kind, events, total modelled µs)], costliest
    first — the ranking behind [utlbsim inspect]. *)

val total_cost : t -> float
