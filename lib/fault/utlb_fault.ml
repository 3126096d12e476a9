(* lib/fault: the deterministic fault-injection plane.

   [Plan] is the declarative spec (parsed from `--faults KEY=VALUE,...`
   and linted by utlbcheck); [Injector] is a plan plus a seeded random
   stream plus counters, threaded through the translation engines as
   an optional [?faults] capability, mirroring the [?sanitizer] and
   [?obs] wiring. *)

module Plan = Plan
module Injector = Injector
