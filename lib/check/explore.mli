(** Exhaustive small-scope model checking of the pin protocol: the
    [utlbcheck explore] pass.

    The {!Protocol} verifier checks the traces we happen to run; this
    pass instead enumerates {e every} interleaving of the protocol's
    individual steps — pin, unpin, table publish, NI fetch, eviction,
    interrupt delivery, DMA use ({!Utlb.Stepper.action}) — for a small
    configuration (a few processes x pages x NI-cache lines) against
    the step-level semantics any registered engine derives via
    {!Utlb.Engine_intf.S.stepper} — the same model {!Protocol} runs on
    ({!Utlb.Sim_driver.stepper} of a resolved mechanism or of
    {!Config_file.packed}). A new engine gets a machine-checked
    protocol certificate the moment it registers.

    The search is a depth-first enumeration with:

    - {b canonical state hashing} — {!Utlb.Stepper.state} keeps every
      collection sorted, so structurally equal values are equal
      protocol states and the visited table hashes them directly;
    - {b dynamic partial-order reduction} — sleep sets (an explored
      action is pushed to its siblings' sleep sets and inherited by
      children through an independence filter keyed on the (page,
      process) footprint) plus a persistent-set heuristic (a process
      whose next protocol step provably conflicts with nobody is
      advanced alone);
    - {b bounded search} — a depth cap and a transition budget; hitting
      either is reported in {!stats.truncation}, never silent.

    Violations combine the admission codes of
    {!Utlb.Stepper.admission} (UP01-UP05, found on [Issue]
    transitions, the rules {!Protocol} runs per record) with the
    exploration-only codes
    UP20-UP23 ({!Catalogue.exploration}): deadlock, unreachable-unpin
    leak, non-quiescent terminal state, and in-flight invalidation
    races. Each first (code, pid) violation is minimized to a
    {!counterexample} whose records form a standard trace file —
    replayable by [utlbsim run --trace-in], re-checkable by [utlbcheck
    verify] (same UP0x code), and re-explorable in trace mode (same
    UP2x code). *)

(** {2 Configuration} *)

type config = {
  scope : Utlb.Stepper.scope;
  max_depth : int;  (** Longest explored action sequence. *)
  budget : int;  (** Maximum transitions fired. *)
}

val default_config : config
(** {!Utlb.Stepper.default_scope}, depth 400, budget 200k — the fixed
    small scope CI checks every engine against. *)

(** {2 Results} *)

type truncation = Exhaustive | Depth_capped | Budget_capped

val truncation_label : truncation -> string

type stats = {
  states : int;  (** Distinct canonical states reached. *)
  transitions : int;  (** Transitions fired. *)
  enabled_total : int;
      (** Enabled actions summed over expanded states: the naive
          interleaving frontier. *)
  dpor_prunes : int;
      (** Enabled actions not fired (persistent-set selection plus
          sleep-set skips). *)
  sleep_prunes : int;  (** The sleep-set share of [dpor_prunes]. *)
  revisits : int;  (** Arrivals at an already-covered state. *)
  max_depth : int;
  truncation : truncation;
  time_ms : float;  (** Search CPU time. *)
}

val prune_ratio : stats -> float
(** [dpor_prunes / enabled_total] — the fraction of the naive
    frontier DPOR avoided. *)

type counterexample = {
  code : string;
  pid : int;
  records : Utlb_trace.Record.t list;  (** The minimized trace. *)
  schedule : string list;
      (** The full interleaving that tripped the violation, one
          {!Utlb.Stepper.action_label} per step. *)
}

type result = {
  label : string;
  semantics : Utlb.Stepper.semantics;
  findings : Finding.t list;  (** Deduplicated per (code, pid). *)
  counterexamples : counterexample list;  (** Same order as findings
      were discovered. *)
  stats : stats;
}

(** {2 Trace mode} *)

val program_of_records :
  Utlb_trace.Record.t list -> (int * Utlb.Stepper.request) list
(** Trace mode: the (pid, request) issue program, in record order. *)

val program_of_trace :
  Utlb_trace.Trace.t -> (int * Utlb.Stepper.request) list

(** {2 Running} *)

val explore :
  ?config:config -> ?label:string -> Utlb.Stepper.semantics -> result
(** Exhaustively search the scope (default {!default_config}; default
    label {!Utlb.Stepper.mechanism}). Deterministic: same semantics
    and config, same result (modulo [time_ms]). *)

(** {2 Witness search}

    [utlbcheck bound --witness] support: a reachability query for a
    concrete schedule realizing a pinned-population target inside the
    scope. DPOR is deliberately off here — it preserves violations,
    not every intermediate global state, and the peak population lives
    in the intermediate states — so this is a plain bounded DFS with
    state caching, a greedy (population-raising actions first) order,
    and branch-and-bound termination at the target. *)

type witness = {
  target : int;  (** The population the search aimed for. *)
  peak : int;  (** The largest population actually reached. *)
  confirmed : bool;  (** [peak >= target]. *)
  schedule : string list;
      (** The interleaving reaching the peak, one
          {!Utlb.Stepper.action_label} per step. *)
  records : Utlb_trace.Record.t list;
      (** Its issued requests as a standard trace, replayable by
          [utlbsim run --trace-in]. *)
  states : int;
  transitions : int;
}

val pinned_witness :
  ?config:config -> target:int -> Utlb.Stepper.semantics -> witness
(** Search the scope for a schedule pinning [target] pages at once
    ({!Bound.witness_target} of the analyzed engine). Deterministic.
    A [confirmed] witness upgrades the scoped pinned bound from
    PLAUSIBLE (sound but possibly loose) to CONFIRMED (realized by a
    concrete schedule). *)

val witness_lines : label:string -> witness -> string list
(** The witness as the lines of a standard trace file: [#] headers
    carrying the engine, target, peak, and CONFIRMED/PLAUSIBLE status,
    the schedule as comments, then one record per issued request. *)

val counterexample_lines : result -> counterexample -> string list
(** The counterexample as the lines of a standard trace file: a [#]
    header carrying the engine, code, and full schedule, then one
    record per line — loadable by every trace reader in the repo. *)

val pp_stats : Format.formatter -> result -> unit
(** One-line stats summary, with the truncation cap called out when
    the search was bounded. *)
