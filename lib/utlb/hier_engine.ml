module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Rng = Utlb_sim.Rng
module Sanitizer = Utlb_sim.Sanitizer
module Probe = Utlb_obs.Probe
module Ev = Utlb_obs.Event
module Injector = Utlb_fault.Injector
module Arbiter = Utlb_tenant.Arbiter

let log_src = Logs.Src.create "utlb.hier" ~doc:"Hierarchical-UTLB engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type backstop =
  | No_backstop
  | Victim_store of int
  | Restseg of { sets : int; ways : int }

type config = {
  cache : Ni_cache.config;
  prefetch : int;
  prepin : int;
  policy : Replacement.policy;
  memory_limit_pages : int option;
  backstop : backstop;
}

let default_config =
  {
    cache = { Ni_cache.entries = 8192; associativity = Ni_cache.Direct };
    prefetch = 1;
    prepin = 1;
    policy = Replacement.Lru;
    memory_limit_pages = None;
    backstop = No_backstop;
  }

let validate config =
  if config.prefetch < 1 then invalid_arg "Hier_engine: prefetch must be >= 1";
  if config.prepin < 1 then invalid_arg "Hier_engine: prepin must be >= 1";
  if Ni_cache.sets_of_config config.cache = None then
    invalid_arg
      "Hier_engine: cache entries must be a positive multiple of the ways \
       with a power-of-two set count";
  match config.backstop with
  | No_backstop -> ()
  | Victim_store entries ->
    if entries < 0 then
      invalid_arg "Hier_engine: victim-store entries must be >= 0"
  | Restseg { sets; ways } ->
    if ways < 0 then invalid_arg "Hier_engine: RestSeg ways must be >= 0";
    if ways > 0 && (sets <= 0 || sets land (sets - 1) <> 0) then
      invalid_arg "Hier_engine: RestSeg sets must be a power of two"

module Pid_table = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal

  let hash = Pid.hash
end)

type process = {
  pinned : Bitvec.t;
  table : Translation_table.t;
  tracker : Replacement.t;
}

(* The live backstop, built from [config.backstop] at [create]; a store
   sized to zero is [Bare], so it degenerates to the plain engine.
   Both stores key lines by (pid lsl 20) lor vpn (vpns fit
   Translation_table's 20 bits); a vpn past the table would alias
   another pid's key, so its probes miss.

   [Victims]: a flat key -> frame map bounded by a FIFO ring of the
   keys in insertion order. Ring slots may hold keys that already left
   the map (recalled or unpinned); the map is the truth, the ring only
   chooses whom to overwrite when the store is full.

   [Rest]: [sets] x [ways] flat key/frame arrays, a key of -1 marking a
   free way. Placement is hash-constrained: a page may only live in the
   ways of its hashed set, so a probe touches one set and nothing
   else. *)
type store =
  | Bare
  | Victims of { map : Flat_map.t; ring : int array; mutable cursor : int }
  | Rest of { sets : int; ways : int; keys : int array; frames : int array }

(* The [?sanitizer] option compiled into a record at [create], the same
   treatment [Utlb_obs.Probe] gives [?obs]: the hot path makes two
   unconditional indirect calls instead of matching an option per check.
   [no_san]'s closures are shared no-ops. Cold paths (process exit,
   [run_invariants]) still use the raw [sanitizer] field. *)
type san = {
  san_active : bool;
  san_fill : t -> Pid.t -> int -> int -> unit;
      (* pid vpn frame: the UV02/UV03 fetched-entry checks. *)
  san_pages : t -> Pid.t -> process -> int -> int -> unit;
      (* pid proc vpn npages: the UV04/UV05 post-lookup shadow scan. *)
}

and t = {
  config : config;
  host : Host_memory.t;
  cache : Ni_cache.t;
  classifier : Miss_classifier.t;
  rng : Rng.t;
  procs : process Pid_table.t;
  sanitizer : Sanitizer.t option;
  san : san;
  probe : Probe.t;
  faults : Injector.t option;
  tenancy : Arbiter.t;
  ten_active : bool;
      (* [Arbiter.active tenancy], cached so the untenanted per-page
         path pays one local branch instead of a cross-module call. *)
  store : store;
  (* Scratch for [lookup]: the clear runs captured before the pin limit
     is enforced (see there). Grown on demand, never shrunk. *)
  mutable run_start : int array;
  mutable run_len : int array;
  mutable totals : Report.t;
  mutable table_swap_interrupts : int;
      (* Rare path of Section 3.3: a second-level translation table was
         swapped to disk; the NI interrupts the host to bring it back. *)
  mutable fault_interrupts : int;
      (* Injected DMA failures that exhausted their retry budget: the
         NI gives up on the fetch and interrupts the host instead. *)
  mutable spills : int;
  mutable recalls : int;
  mutable restseg_hits : int;
      (* Backstop counters, folded into the report at [report] like the
         interrupt counts: the hot path allocates no report record. *)
}

(* [create] lives after the sanitizer hooks it compiles (see
   [compile_san] below). *)

let observe t ~pid ~vpn ~count kind =
  t.probe.Probe.emit kind ~pid:(Pid.to_int pid) ~vpn ~count

let config t = t.config

let host t = t.host

let cache t = t.cache

let classifier t = t.classifier

(* {2 Backstop hooks}

   The points where a backstop joins the lookup path. Hooks answer with
   a frame, -1 for none, and cost one tag test on [Bare]. *)

let store_key pid vpn = (Pid.to_int pid lsl 20) lor vpn

(* Fibonacci-hash the key into a RestSeg set index ([sets] is a power of
   two, so masking the mixed low bits is uniform enough). *)
let rest_base ~sets ~ways key =
  let h = key * 0x9E3779B1 in
  ((h lxor (h lsr 11)) land (sets - 1)) * ways

(* RestSeg probe, ahead of the NI-cache probe. *)
let restseg_frame t pid vpn =
  match t.store with
  | Bare | Victims _ -> -1
  | Rest _ when vpn > Translation_table.max_vpn -> -1
  | Rest { sets; ways; keys; frames } ->
    let key = store_key pid vpn in
    let base = rest_base ~sets ~ways key in
    let frame = ref (-1) in
    for w = base to base + ways - 1 do
      if keys.(w) = key then frame := frames.(w)
    done;
    !frame

(* Victim recall on an NI miss: the line leaves the store. *)
let recall t pid vpn =
  match t.store with
  | Bare | Rest _ -> -1
  | Victims _ when vpn > Translation_table.max_vpn -> -1
  | Victims { map; _ } ->
    let key = store_key pid vpn in
    let slot = Flat_map.find map key in
    if slot < 0 then -1
    else begin
      let frame = Flat_map.value0 map slot in
      Flat_map.remove map key;
      frame
    end

(* A capacity eviction from the Shared UTLB-Cache spills the displaced
   line into the victim store instead of dropping it. *)
let spill t pid vpn frame =
  match t.store with
  | Bare | Rest _ -> ()
  | Victims v ->
    let key = store_key pid vpn in
    let slot = v.cursor in
    let old = v.ring.(slot) in
    if old >= 0 && old <> key then Flat_map.remove v.map old;
    ignore (Flat_map.add v.map key ~v0:frame ~v1:0);
    v.ring.(slot) <- key;
    v.cursor <- (slot + 1) mod Array.length v.ring;
    t.spills <- t.spills + 1

(* A freshly pinned page claims its RestSeg slot (the kernel knows the
   frame right here). Restrictive placement never displaces: a full set
   leaves the page on the flexible path. *)
let place t pid vpn frame =
  match t.store with
  | Bare | Victims _ -> ()
  | Rest { sets; ways; keys; frames } ->
    let key = store_key pid vpn in
    let base = rest_base ~sets ~ways key in
    let placed = ref false in
    let free = ref (-1) in
    for w = base to base + ways - 1 do
      let k = keys.(w) in
      if k = key then begin
        frames.(w) <- frame;
        placed := true
      end
      else if k < 0 && !free < 0 then free := w
    done;
    if (not !placed) && !free >= 0 then begin
      keys.(!free) <- key;
      frames.(!free) <- frame
    end

(* Unpinning a page drops its backstop line, so neither a recall nor a
   RestSeg hit can resurface a stale translation. *)
let drop t pid vpn =
  let key = store_key pid vpn in
  match t.store with
  | Bare -> ()
  | Victims { map; _ } -> Flat_map.remove map key
  | Rest { sets; ways; keys; _ } ->
    let base = rest_base ~sets ~ways key in
    for w = base to base + ways - 1 do
      if keys.(w) = key then keys.(w) <- -1
    done

(* Process exit leaves nothing of the process recallable. *)
let purge t pid =
  let ipid = Pid.to_int pid in
  match t.store with
  | Bare -> ()
  | Victims { map; _ } ->
    let stale = ref [] in
    Flat_map.iter map (fun key ~v0:_ ~v1:_ ->
        if key lsr 20 = ipid then stale := key :: !stale);
    List.iter (Flat_map.remove map) !stale
  | Rest { keys; _ } ->
    Array.iteri
      (fun w key -> if key >= 0 && key lsr 20 = ipid then keys.(w) <- -1)
      keys

(* Sanitizer audit: every backstop line must still describe a pinned,
   resident page with the host's frame. Backstop hits bypass the table
   walk, so a stale line would silently mistranslate. *)
let audit_store t san =
  let check zone key frame =
    let pid = Pid.of_int (key lsr 20) and vpn = key land 0xFFFFF in
    match Host_memory.translate t.host pid ~vpn with
    | Some f when f = frame ->
      if Host_memory.pin_count t.host pid ~vpn = 0 then
        Sanitizer.recordf san ~code:"UV05"
          "%a vpn=%#x: %s holds a translation for an unpinned page" Pid.pp
          pid vpn zone
    | Some f ->
      Sanitizer.recordf san ~code:"UV04"
        "%a vpn=%#x: %s frame %d disagrees with host frame %d" Pid.pp pid vpn
        zone frame f
    | None ->
      Sanitizer.recordf san ~code:"UV04"
        "%a vpn=%#x: %s translation for a non-resident page" Pid.pp pid vpn
        zone
  in
  match t.store with
  | Bare -> ()
  | Victims { map; _ } ->
    Flat_map.iter map (fun key ~v0:frame ~v1:_ ->
        check "victim store" key frame)
  | Rest { keys; frames; _ } ->
    Array.iteri
      (fun w key -> if key >= 0 then check "RestSeg" key frames.(w))
      keys

let add_process t pid =
  if not (Pid_table.mem t.procs pid) then begin
    Host_memory.add_process t.host pid;
    let table =
      Translation_table.create
        ~garbage_frame:(Host_memory.garbage_frame t.host)
        ~pid ()
    in
    Pid_table.replace t.procs pid
      {
        pinned = Bitvec.create ();
        table;
        tracker = Replacement.create t.config.policy ~rng:(Rng.split t.rng);
      };
    if t.ten_active then
      match Arbiter.window t.tenancy ~pid:(Pid.to_int pid) with
      | None -> ()
      | Some (base, mask, offset) ->
        Ni_cache.set_window t.cache ~pid ~base ~mask ~offset
  end

let proc t pid =
  match Pid_table.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg "Hier_engine: unknown process"

let remove_process t pid =
  match Pid_table.find_opt t.procs pid with
  | None -> 0
  | Some p ->
    (* Unpin everything still pinned, then drop all per-process state
       and the process's cache lines. *)
    let released = ref 0 in
    Translation_table.iter_valid p.table (fun vpn _frame ->
        Host_memory.unpin t.host pid ~vpn ~count:1;
        incr released);
    (match t.sanitizer with
    | None -> ()
    | Some san ->
      (* Every pin must have been matched by an unpin by the time the
         process leaves (Section 3.4's safety argument). *)
      let bits = Bitvec.population p.pinned in
      if bits <> !released then
        Sanitizer.recordf san ~code:"UV01"
          "%a exit: pin bit vector tracks %d pages but the translation \
           table released %d"
          Pid.pp pid bits !released;
      let leaked = Host_memory.pinned_pages t.host pid in
      if leaked <> 0 then
        Sanitizer.recordf san ~code:"UV01"
          "%a exit: %d pages still pinned after releasing the \
           translation table (pin leak)"
          Pid.pp pid leaked;
      let recount = Host_memory.recount_pinned t.host pid in
      if recount <> leaked then
        Sanitizer.recordf san ~code:"UV08"
          "%a exit: host pin counter says %d pinned pages but a table \
           walk finds %d"
          Pid.pp pid leaked recount);
    ignore (Ni_cache.invalidate_process t.cache ~pid);
    purge t pid;
    if t.ten_active then
      Arbiter.note_unpin t.tenancy ~pid:(Pid.to_int pid) ~pages:!released;
    Pid_table.remove t.procs pid;
    Log.debug (fun m ->
        m "%a exit: released %d pinned pages" Pid.pp pid !released);
    !released

let table t pid = (proc t pid).table

let pinned_pages t pid = Bitvec.population (proc t pid).pinned

type outcome = {
  check_miss : bool;
  pages_pinned : int;
  pin_calls : int;
  pages_unpinned : int;
  unpin_calls : int;
  ni_accesses : int;
  ni_misses : int;
  entries_fetched : int;
}

(* Unpin one victim page: clear every layer that knows about it. The
   paper unpins "one page at a time" (Section 6.5). *)
let unpin_one t pid p victim =
  Log.debug (fun m -> m "%a evict+unpin vpn=%#x" Pid.pp pid victim);
  observe t ~pid ~vpn:victim ~count:1 Ev.Unpin;
  Host_memory.unpin t.host pid ~vpn:victim ~count:1;
  if t.ten_active then
    Arbiter.note_unpin t.tenancy ~pid:(Pid.to_int pid) ~pages:1;
  Bitvec.clear p.pinned victim;
  Translation_table.invalidate p.table ~vpn:victim;
  drop t pid victim;
  if Ni_cache.invalidate t.cache ~pid ~vpn:victim then
    Miss_classifier.note_invalidate t.classifier ~pid ~vpn:victim

(* Make room for [incoming] new pins under the per-process limit.
   Pages of the current request must not be selected (outstanding
   transfer). Returns pages unpinned. *)
let enforce_limit t pid p ~incoming ~request_vpn ~request_npages =
  match t.config.memory_limit_pages with
  | None -> 0
  | Some limit ->
    let protect page =
      page >= request_vpn && page < request_vpn + request_npages
    in
    let unpinned = ref 0 in
    let continue = ref true in
    (* [unpin_one] updates the bit vector, so the population already
       reflects prior evictions in this loop. *)
    while !continue && Bitvec.population p.pinned + incoming > limit do
      match Replacement.select_victim p.tracker ~protect () with
      | None -> continue := false
      | Some victim ->
        unpin_one t pid p victim;
        incr unpinned
    done;
    !unpinned

(* Pin the runs stashed in [t.run_start]/[t.run_len], one Host_memory
   ioctl per contiguous run (pinning a buffer all at once is cheaper
   than page at a time, Section 6.5). [budget] caps the pages pinned
   (tenant quota): runs beyond it are truncated or skipped, leaving
   the pages unpinned — the NI then sees garbage entries, which is safe
   by design. Returns (calls, pages). *)
let pin_runs t pid p nruns ~budget =
  let calls = ref 0 and total = ref 0 in
  for i = 0 to nruns - 1 do
    let start = t.run_start.(i) in
    let count = min t.run_len.(i) (budget - !total) in
    if count > 0 then begin
      match Host_memory.pin t.host pid ~vpn:start ~count with
      | Error `Out_of_memory ->
        (* Host DRAM exhausted: skip; the pages stay unpinned and the NI
           will see garbage entries (safe by design). *)
        ()
      | Ok frames ->
        observe t ~pid ~vpn:start ~count Ev.Pin;
        for j = 0 to count - 1 do
          let page = start + j in
          Bitvec.set p.pinned page;
          Translation_table.install p.table ~vpn:page ~frame:frames.(j);
          Replacement.insert p.tracker page;
          place t pid page frames.(j)
        done;
        if t.ten_active then
          Arbiter.note_pin t.tenancy ~pid:(Pid.to_int pid) ~pages:count;
        incr calls;
        total := !total + count
    end
  done;
  (!calls, !total)

(* Tenant quota admission for [incoming] new pins: first try to make
   room by evicting this process's own pages (the tenant shrinks
   itself, never a neighbour), then cap what may still be pinned at the
   tenant's remaining quota, counting the shortfall as denials.
   Returns (pages unpinned, pin budget). *)
let enforce_quota t pid p ~incoming ~request_vpn ~request_npages =
  if not t.ten_active then (0, incoming)
  else begin
    let ipid = Pid.to_int pid in
    let protect page =
      page >= request_vpn && page < request_vpn + request_npages
    in
    let unpinned = ref 0 in
    let continue = ref true in
    while !continue && incoming > Arbiter.quota_remaining t.tenancy ~pid:ipid
    do
      match Replacement.select_victim p.tracker ~protect () with
      | None -> continue := false
      | Some victim ->
        unpin_one t pid p victim;
        incr unpinned
    done;
    let budget = min incoming (Arbiter.quota_remaining t.tenancy ~pid:ipid) in
    if budget < incoming then
      Arbiter.note_denied t.tenancy ~pid:ipid ~pages:(incoming - budget);
    (!unpinned, budget)
  end

(* Cache fill = one entry of the NI's DMA fetch from the translation
   table. With the sanitizer on, verify the fetched entry obeys the
   garbage-page scheme: never the garbage frame, always a pinned page. *)
let fill_cache t pid vpn frame =
  t.san.san_fill t pid vpn frame;
  match Ni_cache.insert t.cache ~pid ~vpn ~frame with
  | None -> ()
  | Some (evicted_pid, evicted_vpn, evicted_frame) ->
    if t.ten_active then
      Arbiter.note_eviction t.tenancy
        ~victim_pid:(Pid.to_int evicted_pid)
        ~by_pid:(Pid.to_int pid);
    observe t ~pid:evicted_pid ~vpn:evicted_vpn ~count:Probe.no_count
      Ev.Ni_evict;
    spill t evicted_pid evicted_vpn evicted_frame

let note_recovery t pid ~vpn () =
  Option.iter Injector.note_recovery t.faults;
  observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_recover;
  t.totals <-
    { t.totals with Report.fault_recoveries = t.totals.Report.fault_recoveries + 1 }

(* Interrupt-path service of a single entry: the fallback when an
   injected DMA failure burns its whole retry budget. The host installs
   exactly the faulting page's translation (swapping the second-level
   table back in first if needed); no prefetch, no DMA accounting. *)
let serve_entry_via_interrupt t pid p vpn =
  t.fault_interrupts <- t.fault_interrupts + 1;
  observe t ~pid ~vpn ~count:Probe.no_count Ev.Interrupt;
  (* A page past the table's last entry has no entry to install. *)
  if vpn <= Translation_table.max_vpn then
    match Translation_table.lookup p.table ~vpn with
    | Translation_table.Frame frame -> fill_cache t pid vpn frame
    | Translation_table.Garbage -> ()
    | Translation_table.Table_swapped _ ->
      ignore (Translation_table.swap_in p.table ~dir_index:(vpn lsr 10));
      (match Translation_table.lookup p.table ~vpn with
      | Translation_table.Frame frame -> fill_cache t pid vpn frame
      | Translation_table.Garbage | Translation_table.Table_swapped _ -> ())

(* NI-side translation of one page: Shared UTLB-Cache lookup, with a
   [prefetch]-entry fill on a miss. Only valid (pinned) translations are
   cached; garbage entries are skipped. A RestSeg answers before the
   cache, a victim store after a miss, before the table walk. *)
let ni_translate t pid p vpn =
  (* Fault plane: a spurious invalidation may knock this page's line
     out just before the probe. It only becomes visible (and worth
     recovering) if the line was actually resident. *)
  let injected_invalidate =
    match t.faults with
    | None -> false
    | Some inj ->
      Injector.cache_invalidate inj
      && Ni_cache.invalidate t.cache ~pid ~vpn
      &&
      (Miss_classifier.note_invalidate t.classifier ~pid ~vpn;
       observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
       true)
  in
  if restseg_frame t pid vpn >= 0 then begin
    (* RestSeg hit: one hashed probe, no set walk and no table fetch.
       The miss classifier models only the flexible path, so it is not
       told. *)
    t.restseg_hits <- t.restseg_hits + 1;
    if t.ten_active then
      Arbiter.note_ni_access t.tenancy ~pid:(Pid.to_int pid) ~hit:true;
    observe t ~pid ~vpn ~count:Probe.no_count Ev.Ni_hit;
    if injected_invalidate then note_recovery t pid ~vpn ();
    (0, 0)
  end
  else
  match Ni_cache.lookup t.cache ~pid ~vpn with
  | Some _ ->
    if t.ten_active then
      Arbiter.note_ni_access t.tenancy ~pid:(Pid.to_int pid) ~hit:true;
    Miss_classifier.note_hit t.classifier ~pid ~vpn;
    observe t ~pid ~vpn ~count:Probe.no_count Ev.Ni_hit;
    (0, 0)
  | None ->
    if t.ten_active then
      Arbiter.note_ni_access t.tenancy ~pid:(Pid.to_int pid) ~hit:false;
    ignore (Miss_classifier.classify t.classifier ~pid ~vpn);
    observe t ~pid ~vpn ~count:Probe.no_count Ev.Ni_miss;
    let recalled = recall t pid vpn in
    if recalled >= 0 then begin
      (* Recall: one direct read from the victim store refills the
         cache. The miss still counts; the DMA walk and the fault plane
         that shields it are skipped. *)
      fill_cache t pid vpn recalled;
      t.recalls <- t.recalls + 1;
      if injected_invalidate then note_recovery t pid ~vpn ();
      (1, 0)
    end
    else
    (* Fault plane: the second-level table holding this page may have
       been swapped out from under the NI; the existing Table_swapped
       recovery below then brings it back. *)
    let injected_swap =
      match t.faults with
      | None -> false
      | Some inj ->
        Injector.table_swap inj
        && vpn <= Translation_table.max_vpn
        && Translation_table.swap_out p.table ~dir_index:(vpn lsr 10)
             ~disk_block:1
        &&
        (observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
         true)
    in
    (* Fault plane: the DMA fetch of the prefetch block may fail and be
       retried with backoff; an exhausted budget falls back to the
       interrupt path for just the faulting entry. *)
    let dma =
      match t.faults with None -> Some 0 | Some inj -> Injector.dma_attempts inj
    in
    let fetched = ref 0 in
    (match dma with
    | None ->
      let retries =
        match t.faults with
        | Some inj -> max 0 (Injector.plan inj).Utlb_fault.Plan.dma_retries
        | None -> 0
      in
      observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
      observe t ~pid ~vpn ~count:(1 + retries) Ev.Fault_retry;
      serve_entry_via_interrupt t pid p vpn;
      note_recovery t pid ~vpn ()
    | Some failed ->
      if failed > 0 then begin
        observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
        observe t ~pid ~vpn ~count:failed Ev.Fault_retry
      end;
      for q = vpn to vpn + t.config.prefetch - 1 do
        if q <= Translation_table.max_vpn then begin
          match Translation_table.lookup p.table ~vpn:q with
          | Translation_table.Frame frame ->
            incr fetched;
            fill_cache t pid q frame
          | Translation_table.Garbage -> ()
          | Translation_table.Table_swapped _ ->
            (* Interrupt the host to swap the table back in, then retry
               the entry. *)
            t.table_swap_interrupts <- t.table_swap_interrupts + 1;
            observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Interrupt;
            ignore (Translation_table.swap_in p.table ~dir_index:(q lsr 10));
            (match Translation_table.lookup p.table ~vpn:q with
            | Translation_table.Frame frame ->
              incr fetched;
              fill_cache t pid q frame
            | Translation_table.Garbage | Translation_table.Table_swapped _ ->
              ())
        end
      done;
      if failed > 0 then note_recovery t pid ~vpn ());
    if injected_swap then note_recovery t pid ~vpn ();
    if injected_invalidate then note_recovery t pid ~vpn ();
    if !fetched > 0 then observe t ~pid ~vpn ~count:!fetched Ev.Fetch;
    (1, !fetched)

(* Shadow check of one page: if the Shared UTLB-Cache holds a
   translation for it, that translation must agree with both the
   host-resident translation table and the OS page table, and the page
   must still be pinned. *)
let check_cached_page t san pid p vpn =
  match Ni_cache.peek t.cache ~pid ~vpn with
  | None -> ()
  | Some frame ->
    (match Translation_table.lookup p.table ~vpn with
    | Translation_table.Frame f when f = frame -> ()
    | Translation_table.Frame f ->
      Sanitizer.recordf san ~code:"UV04"
        "%a vpn=%#x: cached frame %d disagrees with translation-table \
         frame %d"
        Pid.pp pid vpn frame f
    | Translation_table.Garbage ->
      Sanitizer.recordf san ~code:"UV04"
        "%a vpn=%#x: stale cache entry (frame %d) for an invalidated \
         translation"
        Pid.pp pid vpn frame
    | Translation_table.Table_swapped _ -> ());
    (match Host_memory.translate t.host pid ~vpn with
    | Some f when f = frame ->
      if Host_memory.pin_count t.host pid ~vpn = 0 then
        Sanitizer.recordf san ~code:"UV05"
          "%a vpn=%#x: cached translation for an unpinned page" Pid.pp pid
          vpn
    | Some f ->
      Sanitizer.recordf san ~code:"UV04"
        "%a vpn=%#x: cached frame %d disagrees with host frame %d" Pid.pp
        pid vpn frame f
    | None ->
      Sanitizer.recordf san ~code:"UV04"
        "%a vpn=%#x: cached translation for a non-resident page" Pid.pp pid
        vpn)

let run_invariants t =
  match t.sanitizer with
  | None -> ()
  | Some san ->
    let garbage = Host_memory.garbage_frame t.host in
    Ni_cache.iter_valid t.cache (fun ~pid ~vpn ~frame ->
        match Pid_table.find_opt t.procs pid with
        | None ->
          Sanitizer.recordf san ~code:"UV04"
            "%a vpn=%#x: cache line (frame %d) for a departed process"
            Pid.pp pid vpn frame
        | Some p ->
          if frame = garbage then
            Sanitizer.recordf san ~code:"UV02"
              "%a vpn=%#x: Shared UTLB-Cache holds the garbage frame"
              Pid.pp pid vpn;
          check_cached_page t san pid p vpn);
    audit_store t san;
    Pid_table.iter
      (fun pid p ->
        let bits = Bitvec.population p.pinned in
        let host_pinned = Host_memory.pinned_pages t.host pid in
        if bits <> host_pinned then
          Sanitizer.recordf san ~code:"UV08"
            "%a: pin bit vector tracks %d pages but the host reports %d \
             pinned"
            Pid.pp pid bits host_pinned;
        let recount = Host_memory.recount_pinned t.host pid in
        if recount <> host_pinned then
          Sanitizer.recordf san ~code:"UV08"
            "%a: host pin counter says %d pinned pages but a table walk \
             finds %d"
            Pid.pp pid host_pinned recount)
      t.procs;
    List.iter
      (fun msg ->
        Sanitizer.recordf san ~code:"UV07" "miss classifier: %s" msg)
      (Miss_classifier.self_check t.classifier)

let no_san =
  {
    san_active = false;
    san_fill = (fun _ _ _ _ -> ());
    san_pages = (fun _ _ _ _ _ -> ());
  }

let compile_san = function
  | None -> no_san
  | Some san ->
    {
      san_active = true;
      san_fill =
        (fun t pid vpn frame ->
          if frame = Host_memory.garbage_frame t.host then
            Sanitizer.recordf san ~code:"UV02"
              "%a vpn=%#x: NI fetched the garbage frame into the Shared \
               UTLB-Cache"
              Pid.pp pid vpn
          else if Host_memory.pin_count t.host pid ~vpn = 0 then
            Sanitizer.recordf san ~code:"UV03"
              "%a vpn=%#x: NI fetched a translation to unpinned frame %d"
              Pid.pp pid vpn frame);
      san_pages =
        (fun t pid p vpn npages ->
          for q = vpn to vpn + npages - 1 do
            check_cached_page t san pid p q
          done);
    }

let create ?host ?sanitizer ?obs ?faults ?tenancy ~seed config =
  validate config;
  let store =
    match config.backstop with
    | Victim_store n when n > 0 ->
      Victims { map = Flat_map.create (); ring = Array.make n (-1); cursor = 0 }
    | Restseg { sets; ways } when ways > 0 ->
      Rest
        {
          sets;
          ways;
          keys = Array.make (sets * ways) (-1);
          frames = Array.make (sets * ways) 0;
        }
    | No_backstop | Victim_store _ | Restseg _ -> Bare
  in
  let host = match host with Some h -> h | None -> Host_memory.create () in
  let cache = Ni_cache.create config.cache in
  let tenancy = Option.value ~default:Arbiter.none tenancy in
  Arbiter.bind tenancy ~sets:(Ni_cache.sets cache);
  {
    config;
    host;
    cache;
    classifier = Miss_classifier.create ~capacity:config.cache.Ni_cache.entries;
    rng = Rng.create ~seed;
    procs = Pid_table.create 8;
    sanitizer;
    san = compile_san sanitizer;
    probe = Probe.of_scope_opt obs;
    faults;
    tenancy;
    ten_active = Arbiter.active tenancy;
    store;
    run_start = Array.make 8 0;
    run_len = Array.make 8 0;
    totals = Report.empty ~label:"utlb";
    table_swap_interrupts = 0;
    fault_interrupts = 0;
    spills = 0;
    recalls = 0;
    restseg_hits = 0;
  }

let lookup t ~pid ~vpn ~npages =
  if npages < 1 then invalid_arg "Hier_engine.lookup: npages must be >= 1";
  add_process t pid;
  let p = proc t pid in
  if t.ten_active then Arbiter.note_lookup t.tenancy ~pid:(Pid.to_int pid);
  (* 1. user-level check — a word-wise scan, no page-list allocation *)
  let check_miss = not (Bitvec.all_set p.pinned ~vpn ~count:npages) in
  let pin_calls, pages_pinned, unpin_calls, pages_unpinned =
    if not check_miss then (0, 0, 0, 0)
    else begin
      (* The clear count exists only to be reported, so it is computed
         only when someone is listening. *)
      if t.probe.Probe.active then
        observe t ~pid ~vpn
          ~count:(Bitvec.clear_count p.pinned ~vpn ~count:npages)
          Ev.Check_miss;
      (* Sequential pre-pinning from the first unpinned page. *)
      let start =
        match Bitvec.first_clear p.pinned ~vpn ~count:npages with
        | Some s -> s
        | None -> assert false (* check_miss implies a clear page *)
      in
      (* Pages past the translation table's last entry are never
         pinned; the NI reads the garbage frame for them (UP02). *)
      let reach =
        min (Translation_table.max_vpn + 1)
          (max (vpn + npages) (start + t.config.prepin))
      in
      let extra = reach - (vpn + npages) in
      if extra > 0 then
        observe t ~pid ~vpn:(vpn + npages) ~count:extra Ev.Pre_pin;
      (* Snapshot the clear runs of [start, reach) BEFORE enforcing the
         pin limit: eviction below may unpin pages inside this window,
         and those must not be re-pinned by this lookup. *)
      let nruns = ref 0 and incoming = ref 0 in
      if reach > start then
        Bitvec.iter_clear_runs p.pinned ~vpn:start ~count:(reach - start)
          (fun ~vpn:run_vpn ~count:run_len ->
            let i = !nruns in
            if i = Array.length t.run_start then begin
              let grow a =
                let b = Array.make (2 * Array.length a) 0 in
                Array.blit a 0 b 0 (Array.length a);
                b
              in
              t.run_start <- grow t.run_start;
              t.run_len <- grow t.run_len
            end;
            t.run_start.(i) <- run_vpn;
            t.run_len.(i) <- run_len;
            nruns := i + 1;
            incoming := !incoming + run_len);
      let quota_unpinned, budget =
        enforce_quota t pid p ~incoming:!incoming ~request_vpn:vpn
          ~request_npages:npages
      in
      let unpinned =
        quota_unpinned
        + enforce_limit t pid p ~incoming:budget ~request_vpn:vpn
            ~request_npages:npages
      in
      let calls, pinned = pin_runs t pid p !nruns ~budget in
      Log.debug (fun m ->
          m "%a check miss vpn=%#x+%d: pinned %d pages in %d ioctls" Pid.pp
            pid vpn npages pinned calls);
      (calls, pinned, unpinned, unpinned)
    end
  in
  (* Touch for recency/frequency. *)
  for q = vpn to vpn + npages - 1 do
    Replacement.touch p.tracker q
  done;
  (* 2. NI-side per-page translation *)
  let ni_misses = ref 0 and entries = ref 0 in
  for q = vpn to vpn + npages - 1 do
    let m, f = ni_translate t pid p q in
    ni_misses := !ni_misses + m;
    entries := !entries + f
  done;
  t.san.san_pages t pid p vpn npages;
  let outcome =
    {
      check_miss;
      pages_pinned;
      pin_calls;
      pages_unpinned;
      unpin_calls;
      ni_accesses = npages;
      ni_misses = !ni_misses;
      entries_fetched = !entries;
    }
  in
  let tot = t.totals in
  t.totals <-
    {
      tot with
      Report.lookups = tot.Report.lookups + 1;
      check_misses = (tot.Report.check_misses + if check_miss then 1 else 0);
      ni_miss_lookups =
        (tot.Report.ni_miss_lookups + if !ni_misses > 0 then 1 else 0);
      ni_page_accesses = tot.Report.ni_page_accesses + npages;
      ni_page_misses = tot.Report.ni_page_misses + !ni_misses;
      pin_calls = tot.Report.pin_calls + pin_calls;
      pages_pinned = tot.Report.pages_pinned + pages_pinned;
      unpin_calls = tot.Report.unpin_calls + unpin_calls;
      pages_unpinned = tot.Report.pages_unpinned + pages_unpinned;
      entries_fetched = tot.Report.entries_fetched + !entries;
    };
  (* End of the lookup is this engine's dispatch boundary: hand the
     batched events to the scope in one replay. *)
  t.probe.Probe.flush ();
  outcome

let is_pinned t ~pid ~vpn = Bitvec.test (proc t pid).pinned vpn

let translate t ~pid ~vpn =
  let p = proc t pid in
  match Translation_table.lookup p.table ~vpn with
  | Translation_table.Frame f -> Some f
  | Translation_table.Garbage | Translation_table.Table_swapped _ -> None

let report t ~label =
  {
    t.totals with
    Report.label;
    interrupts = t.table_swap_interrupts + t.fault_interrupts;
    compulsory = Miss_classifier.compulsory t.classifier;
    capacity = Miss_classifier.capacity_misses t.classifier;
    conflict = Miss_classifier.conflict t.classifier;
    spills = t.spills;
    recalls = t.recalls;
    restseg_hits = t.restseg_hits;
    isolation = Arbiter.snapshot t.tenancy;
  }

let mechanism = "utlb"

let processes t =
  Pid_table.fold (fun pid _ acc -> pid :: acc) t.procs []
  |> List.sort Pid.compare

let remove_and_report t ~label =
  List.iter (fun pid -> ignore (remove_process t pid)) (processes t);
  report t ~label

let backstop_kind (config : config) =
  match config.backstop with
  | No_backstop -> Stepper.No_backstop
  | Victim_store _ -> Stepper.Victim_store
  | Restseg _ -> Stepper.Restseg

let stepper (config : config) =
  Stepper.Hier
    {
      prepin = config.prepin;
      limit_pages = config.memory_limit_pages;
      backstop = backstop_kind config;
    }

let cost_paths (config : config) ~npages =
  {
    Stepper.Cost.paths =
      Stepper.Cost.hier_paths (backstop_kind config) ~prefetch:config.prefetch
        ~prepin:config.prepin ~npages;
    cache_entries = config.cache.Ni_cache.entries;
    prefetch = max 1 config.prefetch;
  }
