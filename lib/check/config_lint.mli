(** Static semantic lint of simulation configurations.

    Catches the configuration mistakes that do not crash the simulator
    but silently corrupt its results — before any simulation runs.

    {2 Finding codes}

    Syntax (emitted by {!Config_file}):
    - [UC001] unparseable line; [UC002] unknown key; [UC003] invalid
      value; [UC004] duplicate key; [UC005] empty value.

    Cache geometry:
    - [UC101] entry count not positive;
    - [UC102] entry count not a multiple of the way count;
    - [UC103] set count not a power of two;
    - [UC104] (info) entry count outside the paper's 1K-16K sweep.

    Engine parameters:
    - [UC110] prefetch < 1; [UC111] prefetch exceeds cache capacity;
    - [UC112] prepin < 1; [UC113] (warning) prepin exceeds cache
      capacity; [UC114] prepin exceeds the translation-table VPN space;
    - [UC120] memory limit not positive; [UC121] memory limit smaller
      than one pre-pin window (every check miss would thrash);
    - [UC130] per-process engine with no processes; [UC131] SRAM budget
      not positive; [UC132] budget divides to zero entries per process;
      [UC133] (info) budget not evenly divisible.

    Cost tables and constants:
    - [UC140] empty anchor table; [UC141] duplicate anchor size;
      [UC142] non-positive anchor size; [UC143] negative latency;
    - [UC144] non-monotone cost table (a larger transfer must not be
      cheaper);
    - [UC150] negative scalar cost;
    - [UC151] NI-cache hit cost >= host entry-fetch (miss) cost — this
      silently inverts every paper result;
    - [UC152] DMA portion of a miss exceeds the total miss cost;
    - [UC153] best-case check cost exceeds worst-case check cost;
    - [UC154] (warning) user-level check costs as much as a kernel pin
      (the design premise of the paper would not hold);
    - [UC155] (warning) interrupt dispatch cheaper than an NI cache hit.

    Observability metrics:
    - [UC160] metric-name collision: a name was re-requested with a
      different collector kind (or histogram geometry), so the second
      collector is detached and its observations silently lost;
    - [UC161] (warning) metric name not namespaced as [component/name].

    Fault plans:
    - [UC170] fault spec does not parse (unknown class, malformed
      value);
    - [UC171] fault probability outside [0,1] or not a number;
    - [UC172] retry budget or duration negative, non-finite or past its
      cap (1,023 DMA retries, 1e9 µs). *)

val lint_geometry :
  ?context:string -> Utlb.Ni_cache.config -> Finding.t list
(** Geometry checks UC101-UC104 — the same conditions
    [Ni_cache.create] enforces by exception, plus plausibility
    warnings, but reported as findings so they can gate CI before any
    code runs. *)

val lint_hier : ?context:string -> Utlb.Hier_engine.config -> Finding.t list
(** Hierarchical-UTLB engine config: geometry plus UC11x/UC12x. *)

val lint_intr : ?context:string -> Utlb.Intr_engine.config -> Finding.t list
(** Interrupt-baseline config: geometry plus UC120. *)

val lint_pp : ?context:string -> Utlb.Pp_engine.config -> Finding.t list
(** Per-process engine config: UC13x. *)

val lint_cost_anchors :
  ?context:string -> name:string -> (int * float) list -> Finding.t list
(** One cost table given as (size, cost) anchors: UC140-UC144. *)

val lint_cost_model : ?context:string -> Utlb.Cost_model.t -> Finding.t list
(** A built cost model, sampled at the paper's anchor sizes:
    UC143/UC144 per table plus the cross-table inversions UC150-UC155. *)

val lint_metrics : ?context:string -> Utlb_obs.Metrics.t -> Finding.t list
(** Metric-registry hygiene: UC160 for every recorded collision (see
    {!Utlb_obs.Metrics.collisions}), UC161 for names outside the
    [component/name] convention. *)

val lint_faults : ?context:string -> string -> Finding.t list
(** A raw fault-plan spec string: UC170 when it does not parse,
    UC171/UC172 for each out-of-range field (via
    {!Utlb_fault.Plan.validate}). *)

val lint_config : Config_file.t -> Finding.t list
(** Everything that applies to a parsed configuration: the selected
    engine's checks, all five cost tables, scalar costs, and the
    cross-table inversion checks. Parse findings are {e not} included —
    callers get those from {!Config_file.parse_string}. *)

val lint_defaults : unit -> Finding.t list
(** Lint the built-in paper defaults ({!Utlb.Hier_engine.default_config},
    {!Utlb.Intr_engine.default_config}, {!Utlb.Pp_engine.default_config}
    and {!Utlb.Cost_model.default}) plus the standard observability
    metric schema ({!Utlb_obs.Scope.preregister}, registered twice to
    prove idempotence). Must be clean; [utlbcheck --defaults] runs it
    in CI as a self-check. *)
