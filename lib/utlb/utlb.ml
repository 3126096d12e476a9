(** UTLB: user-managed address translation for network interfaces.

    Reproduction of Chen, Bilas, Damianakis, Dubnicki & Li,
    "UTLB: A Mechanism for Address Translation on Network Interfaces"
    (ASPLOS 1998).

    The library provides the three UTLB designs and the machinery around
    them:

    - {!Per_process}: fixed translation tables in NI SRAM plus a
      user-level {!Lookup_tree} (Section 3.1);
    - {!Hier_engine}: the Hierarchical-UTLB — host-resident two-level
      {!Translation_table}, user-level {!Bitvec} pin tracking, and the
      {!Ni_cache} (Shared UTLB-Cache) with prefetching (Sections
      3.2-3.3) — the design the paper evaluates as "UTLB". An optional
      backstop adds one of two modern structures (MICRO '23, see
      PAPERS.md): an L2 victim store behind the Shared UTLB-Cache
      ({!Victima_engine}) or a hash-constrained RestSeg zone in front
      of it ({!Utopia_engine});
    - {!Intr_engine}: the interrupt-based baseline it is compared
      against (Section 6.2);
    - {!Replacement}: the five user-level replacement policies
      (Section 3.4);
    - {!Miss_classifier}: three-C miss decomposition (Figure 7);
    - {!Cost_model}: the paper's measured cost constants and the
      Section 6.2 average-lookup-cost equations;
    - {!Engine_intf}: the ENGINE signature every design implements,
      and the packed-module representation the driver dispatches over;
    - {!Obs_cost}: the {!Cost_model} pricing of observability events,
      for phase attribution in {!Utlb_obs.Scope};
    - {!Sim_driver} and {!Report}: trace-driven simulation and its
      accounting (Tables 4-8, Figures 7-8), plus the mechanism
      registry new designs plug into. *)

module Bitvec = Bitvec
module Flat_map = Flat_map
module Lookup_tree = Lookup_tree
module Replacement = Replacement
module Translation_table = Translation_table
module Ni_cache = Ni_cache
module Miss_classifier = Miss_classifier
module Cost_model = Cost_model
module Report = Report
module Hier_engine = Hier_engine
module Intr_engine = Intr_engine
module Victima_engine = Victima_engine
module Utopia_engine = Utopia_engine
module Per_process = Per_process
module Pp_engine = Pp_engine
module Engine_intf = Engine_intf
module Stepper = Stepper
module Obs_cost = Obs_cost
module Sim_driver = Sim_driver
