module Rng = Utlb_sim.Rng

(* The imperative half of the fault plane: a plan plus a private
   SplitMix64 stream plus injection/recovery counters. Each simulation
   cell owns its injector, so campaign results are byte-identical at
   any domain count.

   Determinism contract: a probability of exactly 0.0 consumes no
   randomness. An injector built from [Plan.empty] therefore leaves
   every simulation bit-for-bit identical to one with no injector. *)

type klass = Dma_fail | Cache_invalidate | Table_swap | Irq_timeout

let n_classes = 4

let class_index = function
  | Dma_fail -> 0
  | Cache_invalidate -> 1
  | Table_swap -> 2
  | Irq_timeout -> 3

let class_name = function
  | Dma_fail -> "dma-fail"
  | Cache_invalidate -> "cache-invalidate"
  | Table_swap -> "table-swap"
  | Irq_timeout -> "irq-timeout"

let all_classes = [ Dma_fail; Cache_invalidate; Table_swap; Irq_timeout ]

type t = {
  plan : Plan.t;
  rng : Rng.t;
  injected : int array;
  mutable recoveries : int;
}

let create ?(seed = 0xFA17L) plan =
  { plan; rng = Rng.create ~seed; injected = Array.make n_classes 0; recoveries = 0 }

let plan t = t.plan

(* p = 0.0 short-circuits WITHOUT touching the rng: see the
   determinism contract above. *)
let roll t p = p > 0.0 && Rng.chance t.rng p

let note t klass = t.injected.(class_index klass) <- t.injected.(class_index klass) + 1

let strike t klass p =
  let hit = roll t p in
  if hit then note t klass;
  hit

let cache_invalidate t = strike t Cache_invalidate t.plan.Plan.cache_invalidate

let table_swap t = strike t Table_swap t.plan.Plan.table_swap

(* Timed-out deliveries before one interrupt lands: each issue rolls
   the irq-timeout class independently, bounded by the re-issue budget
   (after which the interrupt is serviced unconditionally). With a
   budget of 0 no roll is made — a timeout without a re-issue budget
   cannot be modelled as recoverable. *)
let irq_reissues t =
  let budget = max 0 t.plan.Plan.irq_retries in
  let rec go n =
    if n >= budget then n
    else if strike t Irq_timeout t.plan.Plan.irq_timeout then go (n + 1)
    else n
  in
  if budget > 0 && strike t Irq_timeout t.plan.Plan.irq_timeout then go 1
  else 0

(* One DMA fetch under the plan: the initial attempt plus up to
   [dma_retries] retries, each failing independently with probability
   [dma_fail]. [Some k] means the fetch succeeded after [k] injected
   failures; [None] means the whole retry budget burned and the caller
   must fall back to the interrupt path. *)
let dma_attempts t =
  if t.plan.Plan.dma_fail <= 0.0 then Some 0
  else begin
    let budget = 1 + max 0 t.plan.Plan.dma_retries in
    let rec go attempt =
      if attempt >= budget then None
      else if strike t Dma_fail t.plan.Plan.dma_fail then go (attempt + 1)
      else Some attempt
    in
    go 0
  end

let note_recovery t = t.recoveries <- t.recoveries + 1

let recoveries t = t.recoveries

let injected t = Array.fold_left ( + ) 0 t.injected

let by_class t =
  List.filter_map
    (fun klass ->
      let n = t.injected.(class_index klass) in
      if n = 0 then None else Some (class_name klass, n))
    all_classes
