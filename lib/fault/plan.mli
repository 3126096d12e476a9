(** A declarative fault plan.

    A plan states which fault classes are active and how often they
    strike; the seeded coin flips live in {!Injector}. Every class maps
    onto a mechanism of the paper it stresses, and every class is read
    by the translation engines:

    - [dma_fail]/[dma_retries]/[dma_backoff_us] — a DMA entry fetch
      over the I/O bus fails; the NI retries with exponential backoff
      and, when the budget is exhausted, falls back to the interrupt
      path (the paper's slow path).
    - [cache_invalidate] — a Shared UTLB-Cache line is spuriously
      invalidated; the next access takes a forced miss and refetches.
    - [table_swap] — a second-level translation table is swapped to
      disk (Section 3.3's reclamation extension); the NI must interrupt
      the host to swap it back in.
    - [irq_timeout]/[irq_retries] — an interrupt is lost or times out
      and must be re-issued.

    Network faults are not part of the plan: a VMMC cluster takes them
    as a [Utlb_net.Link.fault_model] in its config. *)

type t = {
  dma_fail : float;  (** probability an entry-fetch DMA transfer fails *)
  dma_retries : int;  (** bounded retries before interrupt fallback *)
  dma_backoff_us : float;  (** base backoff; doubles per retry *)
  cache_invalidate : float;  (** spurious NI-cache line invalidation *)
  table_swap : float;  (** translation-table swap-out per NI miss *)
  irq_timeout : float;  (** interrupt service timeout, re-issued *)
  irq_retries : int;  (** re-issue budget per interrupt *)
}

val empty : t
(** No faults. An empty plan is guaranteed to consume no randomness, so
    a run with [empty] is byte-identical to a run with no plan at
    all. *)

val is_empty : t -> bool

val backoff_us : t -> attempts:int -> float
(** Exponential backoff paid for [attempts] failed DMA tries:
    [dma_backoff_us * (2^attempts - 1)], 0 for no failures. *)

val keys : string list
(** The spec-grammar key of every fault class, parser order. *)

val parse : string -> (t, string) result
(** Parse a spec string — comma- or semicolon-separated [KEY=VALUE]
    pairs such as ["dma-fail=0.05,dma-retries=3,table-swap=0.01"] —
    checking syntax only. An unknown key is an error naming every key
    of {!keys}. Range problems are left to {!validate} so a linter can
    report them all. *)

val validate : t -> (string * string) list
(** [(key, problem)] for every out-of-range field: a probability that is
    not in [[0,1]] (NaN included), a negative retry budget or more than
    1,023 DMA retries (the backoff, [2^n - 1] steps, is infinite from
    1,024 on), a negative backoff or one that is not finite or past
    1e9 µs. Empty means the plan is well-formed. *)

val of_string : string -> (t, string) result
(** {!parse} followed by {!validate}; the first problem becomes the
    error. This is the strict entry point used by the CLI. *)

val to_string : t -> string
(** Round-trippable spec for the active classes, or ["none"]. *)
