(* The one table every finding code must appear in: --explain resolves
   against it, LINTS.md is checked against it by a unit test, and the
   passes' own codes are asserted to be members. Keep descriptions to
   one line; the emitting site carries the specifics. *)

let config_syntax =
  [
    ("UC001", "config line is not \"key = value\" (or the key is empty)");
    ("UC002", "unknown configuration key ignored");
    ("UC003", "invalid value for a known configuration key");
    ("UC004", "duplicate configuration key; the later value wins");
    ("UC005", "empty value for a configuration key");
  ]

let config_lint =
  [
    ("UC101", "cache entry count is not positive");
    ("UC102", "cache entries are not a multiple of the way count");
    ("UC103", "cache set count is not a power of two");
    ("UC104", "cache entry count is outside the paper's 1K-16K sweep");
    ("UC110", "prefetch window is below 1");
    ("UC111", "prefetch window exceeds the cache; fetched entries evict \
               each other within one miss");
    ("UC112", "pre-pin window is below 1");
    ("UC113", "pre-pin window exceeds the cache; most pre-pinned pages \
               can never be cached");
    ("UC114", "pre-pin window exceeds the virtual address space");
    ("UC120", "per-process memory limit is not positive");
    ("UC121", "memory limit is smaller than one pre-pin window");
    ("UC130", "per-process engine needs at least one process");
    ("UC131", "SRAM budget is not positive");
    ("UC132", "SRAM budget divides to zero entries per process");
    ("UC133", "SRAM budget does not divide evenly across processes");
    ("UC140", "cost table has no anchor points");
    ("UC141", "cost table has a duplicate anchor size");
    ("UC142", "cost table has a non-positive anchor size");
    ("UC143", "cost table anchor cost is negative");
    ("UC144", "cost table is not monotone in operand size");
    ("UC150", "scalar cost is negative");
    ("UC151", "NI-cache hit costs at least as much as a host fetch; the \
               cache can never win");
    ("UC152", "DMA cost exceeds the total miss cost it is part of");
    ("UC153", "best-case check exceeds the worst-case single-page check");
    ("UC154", "user-level check costs as much as a kernel pin");
    ("UC155", "interrupt dispatch is cheaper than an NI cache hit");
    ("UC160", "metric name re-registered with a clashing collector; \
               observations are silently lost");
    ("UC161", "metric name is not namespaced as component/name");
    ("UC170", "fault-plan spec does not parse (unknown class or bad value)");
    ("UC171", "fault probability outside [0,1] or not a number");
    ("UC172", "fault retry budget or duration negative, non-finite or past its cap");
    ("UC180", "tenants spec does not parse (bad mode, pid set, or \
               attribute)");
    ("UC181", "tenant pid sets overlap; a process can have only one \
               tenant");
    ("UC182", "tenant share is outside (0,1] or the shares sum past 1");
    ("UC183", "tenant quota or weight is not positive");
    ("UC184", "strict partition geometry is infeasible: a share rounds \
               below one cache set, or more tenants than sets");
  ]

let runtime_violations =
  [
    ("UV01", "pin/unpin imbalance detected at process removal");
    ("UV02", "DMA or cache fill used the pinned garbage frame");
    ("UV03", "DMA issued against a frame whose page is not pinned");
    ("UV04", "NI-cache entry disagrees with the host translation table");
    ("UV05", "NI-cache holds a translation for an unpinned page");
    ("UV06", "event dispatched before the simulation clock");
    ("UV07", "miss-classifier shadow structures diverged");
    ("UV08", "incremental pin accounting disagrees with a full recount");
  ]

let protocol =
  [
    ("UP00", "trace record does not parse");
    ("UP01", "pin-balance break: a buffer larger than the memory limit \
              forces the pinned population past the limit (in-flight \
              pages are protected from eviction; under the interrupt \
              baseline only a limit below its cache size can break)");
    ("UP02", "garbage-frame reuse: the buffer extends past the \
              translation table, so the NI dereferences the garbage \
              frame");
    ("UP03", "DMA into unpinned memory: the buffer is wider than the \
              interrupt baseline's cache, so self-conflict eviction \
              unpins in-flight pages mid-transfer");
    ("UP04", "table-capacity overflow: more processes than per-process \
              tables, or a buffer wider than one table share, aborts \
              the engine");
    ("UP05", "NI-cache/host-table divergence window: the buffer fits \
              the memory limit but its pre-pin window does not, so \
              replacement may invalidate in-flight entries");
  ]

let races =
  [
    ("UP10", "unpin races NI translation: no happens-before edge orders \
              a page's unpin after the NI's use of its translation");
    ("UP11", "table update races NI fetch: a pin-table write and an NI \
              fetch of the same entry are unordered");
    ("UP12", "event timeline does not parse");
    ("UP13", "event time regresses within one actor");
  ]

let isolation =
  [
    ("UP30", "cross-tenant eviction under strict partitioning: one \
              tenant's NI-cache line was evicted by a fill on behalf \
              of another tenant");
    ("UP31", "cross-tenant unpin window: a tenant's unpin interleaves \
              inside another tenant's in-flight NI miss->fetch window");
  ]

let exploration =
  [
    ("UP20", "exploration deadlock: a reachable interleaving leaves \
              protocol work pending with no enabled action");
    ("UP21", "unreachable unpin: a reachable terminal state leaves pages \
              pinned that no further action can ever release");
    ("UP22", "non-quiescent final state: a reachable terminal state \
              leaves stale translations in the table or NI cache for \
              pages that are no longer pinned");
    ("UP23", "in-flight invalidation race: exploration found an eviction \
              or unpin of a translation while its page's fetch or DMA \
              was in flight");
  ]

let bounds =
  [
    ("UP40", "SLO violation: the sound worst-case latency or pinned-page \
              bound exceeds the declared budget");
    ("UP41", "unbounded retry cost: the fault plan's worst-case \
              retry/backoff chain for a single translation exceeds the \
              one-second sanity ceiling");
    ("UP42", "tenant starvation: a pin quota is below one maximal buffer, \
              so a full-width request can never be admitted");
    ("UP43", "worst-case eviction chain exceeds the cache: a maximal \
              lookup (or its prefetch window) must evict its own \
              in-flight entries within one translation");
    ("UP44", "dead configuration: a declared bound (memory limit or \
              tenant quota) can never be reached, so the path it guards \
              is unreachable");
  ]

let all =
  config_syntax @ config_lint @ runtime_violations @ protocol @ races
  @ isolation @ exploration @ bounds

(* Codes are canonically upper-case; lookups normalise so `--explain
   up40` resolves like `--explain UP40`. *)
let describe code = List.assoc_opt (String.uppercase_ascii code) all

let mem code = List.mem_assoc (String.uppercase_ascii code) all
