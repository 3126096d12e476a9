(* The utopia mechanism: the hierarchical engine with a hash-constrained
   RestSeg zone in front of the Shared UTLB-Cache (see Hier_engine's
   backstops), after "Utopia: Fast and Efficient Address Translation
   via Hybrid Restrictive & Flexible Virtual-to-Physical Address
   Mappings" (MICRO '23). *)

include Hier_engine

let mechanism = "utopia"

let default_config =
  {
    Hier_engine.default_config with
    backstop = Restseg { sets = 2048; ways = 4 };
  }
