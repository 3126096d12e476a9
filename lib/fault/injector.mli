(** The imperative half of the fault plane.

    An injector pairs a {!Plan} with a private deterministic random
    stream and per-class injection counters. The translation engines
    ask it questions ("does this DMA fetch fail?", "does this line get
    invalidated?") and record recoveries back into it.

    Determinism contract: a fault class with probability 0.0 consumes
    no randomness, so an injector built from {!Plan.empty} leaves the
    simulation bit-for-bit unchanged — the property behind the
    "empty plan changes no golden output" guarantee, and behind
    byte-identical serial/parallel campaigns (each cell gets its own
    seeded injector). *)

type t

val create : ?seed:int64 -> Plan.t -> t

val plan : t -> Plan.t

val dma_attempts : t -> int option
(** One DMA entry fetch under the plan. [Some 0]: clean. [Some k]:
    succeeded after [k] injected failures, whose backoff is
    {!Plan.backoff_us}. [None]: the retry budget is exhausted — fall
    back to the interrupt path. *)

val cache_invalidate : t -> bool

val table_swap : t -> bool

val irq_reissues : t -> int
(** Timed-out deliveries before one interrupt lands (0 when nothing
    fires): each issue rolls [irq-timeout] independently, bounded by
    the [irq-retries] budget, after which the interrupt is serviced
    unconditionally. 0 re-issues are possible only with a positive
    budget; a budget of 0 disables the class entirely. *)

val note_recovery : t -> unit
(** Record one completed recovery action (a retried fetch that
    eventually succeeded, an interrupt-path fallback, a re-issued
    interrupt, a repaired cache line). *)

val recoveries : t -> int

val injected : t -> int
(** Total faults injected across all classes. *)

val by_class : t -> (string * int) list
(** Nonzero injection counts, [(class name, count)], stable order. *)
