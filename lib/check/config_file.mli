(** Simulation configuration files for [utlbcheck].

    A deliberately simple [key = value] format (one pair per line, [#]
    comments) describing everything a simulation run is parameterised
    by: which engine, the Shared UTLB-Cache geometry, prefetch/pre-pin
    depths, the replacement policy, the per-process memory limit, and
    the cost-model constants. Example:

    {v
    # Paper-default Hierarchical UTLB
    engine   = utlb
    entries  = 8192
    assoc    = direct
    prefetch = 1
    prepin   = 1
    policy   = lru
    limit_mb = 64
    ni_hit_us = 0.8
    pin_table = 1:27, 2:30, 4:36, 8:47, 16:70, 32:115
    v}

    Parsing is forgiving by design: malformed or unknown entries
    produce {!Finding.t}s (codes UC001-UC005) and fall back to the
    paper defaults, so the semantic linter ({!Config_lint}) always has
    a complete configuration to analyse. *)

type engine = Utlb | Intr | Per_process

val engine_name : engine -> string

type t = {
  source : string;  (** Where the config came from, for messages. *)
  engine : engine;
  entries : int;
  associativity : Utlb.Ni_cache.associativity;
  prefetch : int;
  prepin : int;
  policy : Utlb.Replacement.policy;
  limit_mb : int option;
  processes : int;
  sram_budget_entries : int;
  user_check_us : float;
  ni_hit_us : float;
  ni_direct_us : float;
  intr_us : float;
  kernel_pin_us : float;
  kernel_unpin_us : float;
  check_min_us : float;
  pin_table : (int * float) list;
  unpin_table : (int * float) list;
  ni_miss_table : (int * float) list;
  dma_table : (int * float) list;
  check_max_table : (int * float) list;
  faults : string option;
      (** Raw fault-plan spec ([faults = dma-fail=0.05,...]); parsed
          and range-checked by {!Config_lint} (codes UC170-UC172). *)
}

val default : t
(** The paper-default Hierarchical-UTLB configuration. *)

val packed : t -> Utlb.Sim_driver.packed
(** The engine the file declares, with its configuration: the one map
    from a config file to an engine that every checker uses.
    @raise Invalid_argument if [limit_mb] is negative or too large for
    {!Utlb_mem.Addr.pages_of_mb}, which no parsed config holds: parsing
    reports such a value as UC003 and keeps the default. *)

val hier_config : t -> Utlb.Hier_engine.config

val intr_config : t -> Utlb.Intr_engine.config

val pp_config : t -> Utlb.Pp_engine.config
(** The file's settings as each engine's configuration, as {!packed}
    builds them; {!Config_lint} checks the one its [engine] names. *)

val cost_model : t -> Utlb.Cost_model.t
(** The cost model the file declares (cost tables that fail to
    construct fall back to the paper defaults; {!Config_lint} reports
    them separately). *)

val parse_string : ?source:string -> string -> t * Finding.t list
(** Parse config text. Syntactic problems (unparseable lines, bad
    values, unknown or duplicate keys) are returned as findings; the
    affected keys keep their defaults. *)

val parse_file : string -> (t * Finding.t list, string) result
(** [Error msg] when the file cannot be read. *)
