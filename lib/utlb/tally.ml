(* The {!Report} counters an engine accumulates, as mutable ints that a
   lookup updates in place, so that a lookup allocates no report
   record. The lookup in flight counts into its own fields, which
   [finish] adds to the run totals; [finish] is the one place a
   lookup's counts become both the totals and its
   {!Engine_intf.outcome}. *)

type t = {
  (* Run totals. *)
  mutable lookups : int;
  mutable check_misses : int;
  mutable ni_miss_lookups : int;
  mutable ni_page_accesses : int;
  mutable ni_page_misses : int;
  mutable pin_calls : int;
  mutable pages_pinned : int;
  mutable pages_unpinned : int;
  mutable interrupts : int;
  mutable entries_fetched : int;
  mutable fault_recoveries : int;
  mutable spills : int;
  mutable recalls : int;
  mutable restseg_hits : int;
  (* The lookup in flight. Every engine unpins one page per call, so
     one count serves both unpin columns. *)
  mutable calls : int;
  mutable pinned : int;
  mutable unpinned : int;
  mutable misses : int;
  mutable fetched : int;
  mutable irqs : int;
  (* Outcomes already built, direct-mapped by their counts. *)
  outcomes : Engine_intf.outcome array;
}

let outcome_slots = 64

let create () =
  {
    lookups = 0;
    check_misses = 0;
    ni_miss_lookups = 0;
    ni_page_accesses = 0;
    ni_page_misses = 0;
    pin_calls = 0;
    pages_pinned = 0;
    pages_unpinned = 0;
    interrupts = 0;
    entries_fetched = 0;
    fault_recoveries = 0;
    spills = 0;
    recalls = 0;
    restseg_hits = 0;
    calls = 0;
    pinned = 0;
    unpinned = 0;
    misses = 0;
    fetched = 0;
    irqs = 0;
    outcomes = Array.make outcome_slots Engine_intf.unchanged;
  }

let pin t ~calls ~pages =
  t.calls <- t.calls + calls;
  t.pinned <- t.pinned + pages

let unpin t ~pages = t.unpinned <- t.unpinned + pages

let miss t = t.misses <- t.misses + 1

let fetch t n = t.fetched <- t.fetched + n

let interrupt t n = t.irqs <- t.irqs + n

let recover t = t.fault_recoveries <- t.fault_recoveries + 1

(* The in-flight counts as an outcome. Outcomes are immutable, so one
   built for the same counts before is returned again: the table keeps
   the last outcome built per slot, and the few shapes a run produces
   (one pin call of one page and one miss, ...) stop allocating once
   each is built. *)
let outcome t ~check_miss =
  let h = if check_miss then 1 else 0 in
  let h = (h * 31) + t.calls in
  let h = (h * 31) + t.pinned in
  let h = (h * 31) + t.unpinned in
  let h = (h * 31) + t.misses in
  let h = (h * 31) + t.fetched in
  let h = (h * 31) + t.irqs in
  let slot = (h lxor (h lsr 7)) land (outcome_slots - 1) in
  let o = t.outcomes.(slot) in
  if
    o.Engine_intf.check_miss = check_miss
    && o.pin_calls = t.calls && o.pages_pinned = t.pinned
    && o.unpin_calls = t.unpinned && o.ni_misses = t.misses
    && o.entries_fetched = t.fetched && o.interrupts = t.irqs
  then o
  else begin
    let o =
      {
        Engine_intf.check_miss;
        pin_calls = t.calls;
        pages_pinned = t.pinned;
        unpin_calls = t.unpinned;
        pages_unpinned = t.unpinned;
        ni_misses = t.misses;
        entries_fetched = t.fetched;
        interrupts = t.irqs;
      }
    in
    t.outcomes.(slot) <- o;
    o
  end

(* Close the lookup in flight: add its counts to the totals and return
   them, as the shared [unchanged] when nothing moved. *)
let finish t ~npages ~check_miss =
  t.lookups <- t.lookups + 1;
  if check_miss then t.check_misses <- t.check_misses + 1;
  if t.misses > 0 then t.ni_miss_lookups <- t.ni_miss_lookups + 1;
  t.ni_page_accesses <- t.ni_page_accesses + npages;
  t.ni_page_misses <- t.ni_page_misses + t.misses;
  t.pin_calls <- t.pin_calls + t.calls;
  t.pages_pinned <- t.pages_pinned + t.pinned;
  t.pages_unpinned <- t.pages_unpinned + t.unpinned;
  t.entries_fetched <- t.entries_fetched + t.fetched;
  t.interrupts <- t.interrupts + t.irqs;
  let outcome =
    if
      (not check_miss) && t.calls = 0 && t.pinned = 0 && t.unpinned = 0
      && t.misses = 0 && t.fetched = 0 && t.irqs = 0
    then Engine_intf.unchanged
    else outcome t ~check_miss
  in
  t.calls <- 0;
  t.pinned <- 0;
  t.unpinned <- 0;
  t.misses <- 0;
  t.fetched <- 0;
  t.irqs <- 0;
  outcome

(* The run as a report, built once per call. *)
let report t ~label ~compulsory ~capacity ~conflict ~isolation =
  {
    Report.label;
    lookups = t.lookups;
    check_misses = t.check_misses;
    ni_miss_lookups = t.ni_miss_lookups;
    ni_page_accesses = t.ni_page_accesses;
    ni_page_misses = t.ni_page_misses;
    pin_calls = t.pin_calls;
    pages_pinned = t.pages_pinned;
    unpin_calls = t.pages_unpinned;
    pages_unpinned = t.pages_unpinned;
    interrupts = t.interrupts;
    entries_fetched = t.entries_fetched;
    compulsory;
    capacity;
    conflict;
    fault_recoveries = t.fault_recoveries;
    records_skipped = 0;
    spills = t.spills;
    recalls = t.recalls;
    restseg_hits = t.restseg_hits;
    isolation;
  }
