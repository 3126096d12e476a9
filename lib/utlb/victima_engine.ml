(* The victima mechanism: the hierarchical engine with a victim store
   behind the Shared UTLB-Cache (see Hier_engine's backstops), after
   "Victima: Drastically Increasing Address Translation Reach by
   Leveraging Underutilized Cache Resources" (MICRO '23). *)

include Hier_engine

let mechanism = "victima"

let default_config =
  { Hier_engine.default_config with backstop = Victim_store 2048 }
