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
  if Option.value ~default:0 config.memory_limit_pages < 0 then
    invalid_arg "Hier_engine: memory limit must be >= 0 pages";
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

type t = {
  config : config;
  core : process Ni_core.t;
  rng : Rng.t;
  (* Whether anything can select a victim from the replacement
     trackers: a pin limit ([enforce_limit]) or an active tenancy
     ([enforce_quota]). Without either, nothing reads a tracker, so
     lookups do not keep them current. *)
  tracked : bool;
  store : store;
  (* Scratch for [lookup]: the clear runs captured before the pin limit
     is enforced (see there), and the frames of one pin call. Grown on
     demand, never shrunk. *)
  mutable run_start : int array;
  mutable run_len : int array;
  mutable frames : int array;
}

let observe t ~pid ~vpn ~count kind =
  Ni_core.observe t.core ~pid ~vpn ~count kind

(* Log lines are built only when someone reads them: a [Log.debug]
   closure costs an allocation even when the level drops it. *)
let debugging () =
  match Logs.Src.level log_src with Some Logs.Debug -> true | _ -> false

let config t = t.config

let host t = t.core.host

let cache t = t.core.cache

let classifier t = t.core.classifier

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
    t.core.tally.spills <- t.core.tally.spills + 1

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
    match Host_memory.translate t.core.host pid ~vpn with
    | Some f when f = frame ->
      if Host_memory.pin_count t.core.host pid ~vpn = 0 then
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

(* Each process gets its tracker, and so its split of the engine's
   stream, whether or not the engine keeps trackers current: an idle
   tracker costs a few hundred words once. *)
let add_process t pid =
  if not (Ni_core.mem t.core pid) then
    Ni_core.admit t.core pid
      {
        pinned = Bitvec.create ();
        table =
          Translation_table.create
            ~garbage_frame:(Host_memory.garbage_frame t.core.host)
            ~pid ();
        tracker = Replacement.create t.config.policy ~rng:(Rng.split t.rng);
      }

let remove_process t pid =
  let c = t.core in
  match Ni_core.Pid_table.find_opt c.procs pid with
  | None -> 0
  | Some p ->
    (* Unpin everything still pinned, then drop all per-process state
       and the process's cache and backstop lines. *)
    let released = ref 0 in
    Translation_table.iter_valid p.table (fun vpn _frame ->
        Host_memory.unpin c.host pid ~vpn ~count:1;
        incr released);
    (match c.sanitizer with
    | None -> ()
    | Some san ->
      let bits = Bitvec.population p.pinned in
      if bits <> !released then
        Sanitizer.recordf san ~code:"UV01"
          "%a exit: pin bit vector tracks %d pages but the translation \
           table released %d"
          Pid.pp pid bits !released);
    Ni_core.retire c pid ~released:!released;
    purge t pid;
    if debugging () then
      Log.debug (fun m ->
          m "%a exit: released %d pinned pages" Pid.pp pid !released);
    !released

let table t pid = (Ni_core.find t.core pid).table

let pinned_pages t pid = Bitvec.population (Ni_core.find t.core pid).pinned

(* Unpin one victim page: clear every layer that knows about it. The
   paper unpins "one page at a time" (Section 6.5). *)
let unpin_one t pid p victim =
  if debugging () then
    Log.debug (fun m -> m "%a evict+unpin vpn=%#x" Pid.pp pid victim);
  Ni_core.unpin_victim t.core pid victim;
  Bitvec.clear p.pinned victim;
  Translation_table.invalidate p.table ~vpn:victim;
  drop t pid victim

(* Make room for [incoming] new pins under the per-process limit.
   Pages of the current request [vpn, vpn + npages) must not be
   selected (outstanding transfer). *)
let enforce_limit t pid p ~incoming ~vpn ~npages =
  match t.config.memory_limit_pages with
  | None -> ()
  | Some limit ->
    let continue = ref true in
    (* [unpin_one] updates the bit vector, so the population already
       reflects prior evictions in this loop. *)
    while !continue && Bitvec.population p.pinned + incoming > limit do
      let victim = Replacement.select_outside p.tracker ~vpn ~npages in
      if victim < 0 then continue := false else unpin_one t pid p victim
    done

(* Pin the first [nruns] runs stashed in [t.run_start]/[t.run_len], one
   Host_memory ioctl per contiguous run (pinning a buffer all at once
   is cheaper than page at a time, Section 6.5). [budget] caps the
   pages pinned (tenant quota): runs beyond it are truncated or
   skipped, leaving the pages unpinned — the NI then sees garbage
   entries, which is safe by design. *)
let pin_runs t pid p nruns ~budget =
  let c = t.core in
  let total = ref 0 in
  for i = 0 to nruns - 1 do
    let start = t.run_start.(i) in
    let count = min t.run_len.(i) (budget - !total) in
    if count > Array.length t.frames then t.frames <- Array.make count 0;
    (* A failed pin means host DRAM is exhausted: the pages stay
       unpinned and the NI will see garbage entries (safe by design). *)
    if count > 0 && Host_memory.pin_into c.host pid ~vpn:start ~count t.frames
    then begin
      observe t ~pid ~vpn:start ~count Ev.Pin;
      for j = 0 to count - 1 do
        let page = start + j in
        Bitvec.set p.pinned page;
        Translation_table.install p.table ~vpn:page ~frame:t.frames.(j);
        if t.tracked then Replacement.insert p.tracker page;
        place t pid page t.frames.(j)
      done;
      if c.ten_active then
        Arbiter.note_pin c.tenancy ~pid:(Pid.to_int pid) ~pages:count;
      Tally.pin c.tally ~calls:1 ~pages:count;
      total := !total + count
    end
  done

(* Tenant quota admission for [incoming] new pins: first try to make
   room by evicting this process's own pages (the tenant shrinks
   itself, never a neighbour), then cap what may still be pinned at the
   tenant's remaining quota, counting the shortfall as denials.
   Returns the pin budget. *)
let enforce_quota t pid p ~incoming ~vpn ~npages =
  let c = t.core in
  if not c.ten_active then incoming
  else begin
    let ipid = Pid.to_int pid in
    let continue = ref true in
    while !continue && incoming > Arbiter.quota_remaining c.tenancy ~pid:ipid
    do
      let victim = Replacement.select_outside p.tracker ~vpn ~npages in
      if victim < 0 then continue := false else unpin_one t pid p victim
    done;
    let budget = min incoming (Arbiter.quota_remaining c.tenancy ~pid:ipid) in
    if budget < incoming then
      Arbiter.note_denied c.tenancy ~pid:ipid ~pages:(incoming - budget);
    budget
  end

(* Cache fill = one entry of the NI's DMA fetch from the translation
   table. With the sanitizer on, verify the fetched entry obeys the
   garbage-page scheme: never the garbage frame, always a pinned page. *)
let fill_cache t pid vpn frame =
  let c = t.core in
  (match c.sanitizer with
  | None -> ()
  | Some san ->
    if frame = Host_memory.garbage_frame c.host then
      Sanitizer.recordf san ~code:"UV02"
        "%a vpn=%#x: NI fetched the garbage frame into the Shared \
         UTLB-Cache"
        Pid.pp pid vpn
    else if Host_memory.pin_count c.host pid ~vpn = 0 then
      Sanitizer.recordf san ~code:"UV03"
        "%a vpn=%#x: NI fetched a translation to unpinned frame %d" Pid.pp
        pid vpn frame);
  if Ni_core.insert c pid vpn frame then
    spill t
      (Ni_cache.evicted_pid c.cache)
      (Ni_cache.evicted_vpn c.cache)
      (Ni_cache.evicted_frame c.cache)

(* Interrupt-path service of a single entry: the fallback when an
   injected DMA failure burns its whole retry budget. The host installs
   exactly the faulting page's translation (swapping the second-level
   table back in first if needed); no prefetch, no DMA accounting. *)
let serve_entry_via_interrupt t pid p vpn =
  Tally.interrupt t.core.tally 1;
  observe t ~pid ~vpn ~count:Probe.no_count Ev.Interrupt;
  (* A page past the table's last entry has no entry to install. *)
  if vpn <= Translation_table.max_vpn then begin
    let entry = Translation_table.lookup p.table ~vpn in
    let entry =
      if entry >= Translation_table.garbage_entry then entry
      else begin
        ignore (Translation_table.swap_in p.table ~dir_index:(vpn lsr 10));
        Translation_table.lookup p.table ~vpn
      end
    in
    if entry >= 0 then fill_cache t pid vpn entry
  end

(* NI-side translation of one page: Shared UTLB-Cache lookup, with a
   [prefetch]-entry fill on a miss. Only valid (pinned) translations are
   cached; garbage entries are skipped. A RestSeg answers before the
   cache, a victim store after a miss, before the table walk. *)
let ni_translate t pid p vpn =
  let c = t.core in
  let injected_invalidate = Ni_core.spurious_invalidate c pid vpn in
  if restseg_frame t pid vpn >= 0 then begin
    (* RestSeg hit: one hashed probe, no set walk and no table fetch.
       The miss classifier models only the flexible path, so it is not
       told. *)
    c.tally.restseg_hits <- c.tally.restseg_hits + 1;
    if c.ten_active then
      Arbiter.note_ni_access c.tenancy ~pid:(Pid.to_int pid) ~hit:true;
    observe t ~pid ~vpn ~count:Probe.no_count Ev.Ni_hit;
    if injected_invalidate then Ni_core.recover c pid ~vpn
  end
  else if Ni_core.probe c pid vpn < 0 then begin
    let recalled = recall t pid vpn in
    if recalled >= 0 then begin
      (* Recall: one direct read from the victim store refills the
         cache. The miss still counts; the DMA walk and the fault plane
         that shields it are skipped. *)
      fill_cache t pid vpn recalled;
      c.tally.recalls <- c.tally.recalls + 1;
      if injected_invalidate then Ni_core.recover c pid ~vpn
    end
    else begin
      (* Fault plane: the second-level table holding this page may have
         been swapped out from under the NI; the swapped-table recovery
         below then brings it back. *)
      let injected_swap =
        match c.faults with
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
      (* Fault plane: the DMA fetch of the prefetch block may fail and
         be retried with backoff ([failed] attempts, 0 without a plan);
         an exhausted budget (-1) falls back to the interrupt path for
         just the faulting entry. *)
      let failed =
        match c.faults with
        | None -> 0
        | Some inj -> Option.value ~default:(-1) (Injector.dma_attempts inj)
      in
      let fetched_before = c.tally.fetched in
      if failed < 0 then begin
        let retries =
          match c.faults with
          | Some inj -> max 0 (Injector.plan inj).Utlb_fault.Plan.dma_retries
          | None -> 0
        in
        observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
        observe t ~pid ~vpn ~count:(1 + retries) Ev.Fault_retry;
        serve_entry_via_interrupt t pid p vpn;
        Ni_core.recover c pid ~vpn
      end
      else begin
        if failed > 0 then begin
          observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
          observe t ~pid ~vpn ~count:failed Ev.Fault_retry
        end;
        let last = vpn + t.config.prefetch - 1 in
        for q = vpn to min Translation_table.max_vpn last do
          let entry = Translation_table.lookup p.table ~vpn:q in
          let entry =
            if entry >= Translation_table.garbage_entry then entry
            else begin
              (* Interrupt the host to swap the table back in, then
                 retry the entry. *)
              Tally.interrupt c.tally 1;
              observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Interrupt;
              ignore (Translation_table.swap_in p.table ~dir_index:(q lsr 10));
              Translation_table.lookup p.table ~vpn:q
            end
          in
          if entry >= 0 then begin
            Tally.fetch c.tally 1;
            fill_cache t pid q entry
          end
        done;
        if failed > 0 then Ni_core.recover c pid ~vpn
      end;
      if injected_swap then Ni_core.recover c pid ~vpn;
      if injected_invalidate then Ni_core.recover c pid ~vpn;
      let fetched = c.tally.fetched - fetched_before in
      if fetched > 0 then observe t ~pid ~vpn ~count:fetched Ev.Fetch
    end
  end

(* The engine's own check of a cached line: it must agree with the
   host-resident translation table. *)
let check_line san pid p vpn frame =
  let entry = Translation_table.lookup p.table ~vpn in
  if entry = Translation_table.garbage_entry then
    Sanitizer.recordf san ~code:"UV04"
      "%a vpn=%#x: stale cache entry (frame %d) for an invalidated \
       translation"
      Pid.pp pid vpn frame
  else if entry >= 0 && entry <> frame then
    Sanitizer.recordf san ~code:"UV04"
      "%a vpn=%#x: cached frame %d disagrees with translation-table frame %d"
      Pid.pp pid vpn frame entry

let run_invariants t =
  Ni_core.run_invariants t.core;
  Option.iter (audit_store t) t.core.sanitizer

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
  let core =
    Ni_core.create ?host ?sanitizer ?obs ?faults ?tenancy
      ~ledger:"pin bit vector"
      ~pinned:(fun p -> Bitvec.population p.pinned)
      ~check_line config.cache
  in
  {
    config;
    core;
    rng = Rng.create ~seed;
    tracked = config.memory_limit_pages <> None || core.ten_active;
    store;
    run_start = Array.make 8 0;
    run_len = Array.make 8 0;
    frames = Array.make 8 0;
  }

(* Stash the clear runs of [start, reach) in [t.run_start]/[t.run_len]
   and return how many there are. *)
let collect_runs t p ~start ~reach =
  let n = ref 0 and page = ref start in
  while !page < reach do
    let first = Bitvec.first_clear p.pinned ~vpn:!page ~count:(reach - !page) in
    if first < 0 then page := reach
    else begin
      let set = Bitvec.first_set p.pinned ~vpn:first ~count:(reach - first) in
      let stop = if set < 0 then reach else set in
      if !n = Array.length t.run_start then begin
        let grow a =
          let b = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 b 0 (Array.length a);
          b
        in
        t.run_start <- grow t.run_start;
        t.run_len <- grow t.run_len
      end;
      t.run_start.(!n) <- first;
      t.run_len.(!n) <- stop - first;
      incr n;
      page := stop
    end
  done;
  !n

(* The check missed at [start], the first unpinned page: pin what the
   buffer and its pre-pin window lack, through an ioctl. *)
let pin_missing t pid p ~vpn ~npages ~start =
  let c = t.core in
  (* The clear count exists only to be reported, so it is computed
     only when someone is listening. *)
  if c.probe.Probe.active then
    observe t ~pid ~vpn
      ~count:(Bitvec.clear_count p.pinned ~vpn ~count:npages)
      Ev.Check_miss;
  (* Sequential pre-pinning from the first unpinned page. Pages past
     the translation table's last entry are never pinned; the NI reads
     the garbage frame for them (UP02). *)
  let reach =
    min (Translation_table.max_vpn + 1)
      (max (vpn + npages) (start + t.config.prepin))
  in
  let extra = reach - (vpn + npages) in
  if extra > 0 then observe t ~pid ~vpn:(vpn + npages) ~count:extra Ev.Pre_pin;
  (* Snapshot the clear runs of [start, reach) BEFORE enforcing the pin
     limit: eviction below may unpin pages inside this window, and those
     must not be re-pinned by this lookup. *)
  let nruns = collect_runs t p ~start ~reach in
  let incoming = ref 0 in
  for i = 0 to nruns - 1 do
    incoming := !incoming + t.run_len.(i)
  done;
  let budget = enforce_quota t pid p ~incoming:!incoming ~vpn ~npages in
  enforce_limit t pid p ~incoming:budget ~vpn ~npages;
  pin_runs t pid p nruns ~budget;
  if debugging () then
    Log.debug (fun m ->
        m "%a check miss vpn=%#x+%d: pinned %d pages in %d ioctls" Pid.pp pid
          vpn npages c.tally.pinned c.tally.calls)

let lookup t ~pid ~vpn ~npages =
  if npages < 1 then invalid_arg "Hier_engine.lookup: npages must be >= 1";
  add_process t pid;
  let c = t.core in
  let p = Ni_core.find c pid in
  if c.ten_active then Arbiter.note_lookup c.tenancy ~pid:(Pid.to_int pid);
  (* 1. user-level check — a word-wise scan, no page-list allocation *)
  let start = Bitvec.first_clear p.pinned ~vpn ~count:npages in
  if start >= 0 then pin_missing t pid p ~vpn ~npages ~start;
  (* Touch for recency/frequency. *)
  if t.tracked then
    for q = vpn to vpn + npages - 1 do
      Replacement.touch p.tracker q
    done;
  (* 2. NI-side per-page translation *)
  for q = vpn to vpn + npages - 1 do
    ni_translate t pid p q
  done;
  Ni_core.finish c pid p ~vpn ~npages ~check_miss:(start >= 0)

let is_pinned t ~pid ~vpn = Bitvec.test (Ni_core.find t.core pid).pinned vpn

let translate t ~pid ~vpn =
  let entry = Translation_table.lookup (Ni_core.find t.core pid).table ~vpn in
  if entry >= 0 then Some entry else None

let report t ~label = Ni_core.report t.core ~label

let mechanism = "utlb"

let processes t = Ni_core.processes t.core

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
