module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Rng = Utlb_sim.Rng
module Sanitizer = Utlb_sim.Sanitizer
module Probe = Utlb_obs.Probe
module Ev = Utlb_obs.Event
module Injector = Utlb_fault.Injector
module Arbiter = Utlb_tenant.Arbiter

type config = {
  cache : Ni_cache.config;
  memory_limit_pages : int option;
}

let default_config =
  {
    cache = { Ni_cache.entries = 8192; associativity = Ni_cache.Direct };
    memory_limit_pages = None;
  }

let validate config =
  if Ni_cache.sets_of_config config.cache = None then
    invalid_arg
      "Intr_engine: cache entries must be a positive multiple of the ways \
       with a power-of-two set count";
  if Option.value ~default:0 config.memory_limit_pages < 0 then
    invalid_arg "Intr_engine: memory limit must be >= 0 pages"

(* Per process: an LRU tracker over the pages currently pinned (equal to
   the pages whose translation sits in the NI cache). *)
type process = { tracker : Replacement.t }

type t = {
  config : config;
  core : process Ni_core.t;
  rng : Rng.t;
  frame : int array; (* the frame of one kernel pin *)
}

let observe t ~pid ~vpn ~count kind =
  Ni_core.observe t.core ~pid ~vpn ~count kind

let host t = t.core.host

let cache t = t.core.cache

let add_process t pid =
  if not (Ni_core.mem t.core pid) then
    Ni_core.admit t.core pid
      { tracker = Replacement.create Replacement.Lru ~rng:(Rng.split t.rng) }

let pinned_pages t pid = Replacement.size (Ni_core.find t.core pid).tracker

let remove_process t pid =
  let c = t.core in
  match Ni_core.Pid_table.find_opt c.procs pid with
  | None -> 0
  | Some p ->
    let released = ref 0 in
    let victim = ref (Replacement.select_outside p.tracker ~vpn:0 ~npages:0) in
    while !victim >= 0 do
      Host_memory.unpin c.host pid ~vpn:!victim ~count:1;
      incr released;
      victim := Replacement.select_outside p.tracker ~vpn:0 ~npages:0
    done;
    Ni_core.retire c pid ~released:!released;
    !released

(* One host interrupt, with the fault plane's timeout + re-issue loop:
   each re-issue costs another dispatch (counted and observed like a
   real interrupt) and a delivery that needed one is a recovery. *)
let issue_interrupt t pid q =
  let c = t.core in
  observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Interrupt;
  let reissues =
    match c.faults with None -> 0 | Some inj -> Injector.irq_reissues inj
  in
  if reissues > 0 then begin
    observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Fault_inject;
    for _ = 1 to reissues do
      observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Interrupt
    done;
    observe t ~pid ~vpn:q ~count:reissues Ev.Fault_retry;
    Ni_core.recover c pid ~vpn:q
  end;
  Tally.interrupt c.tally (1 + reissues)

(* Install a translation; a line it evicts unpins its page, whichever
   process owns it. *)
let insert t pid q frame =
  let c = t.core in
  if Ni_core.insert c pid q frame then begin
    let evicted_pid = Ni_cache.evicted_pid c.cache in
    let evicted_vpn = Ni_cache.evicted_vpn c.cache in
    if c.ten_active then
      Arbiter.note_unpin c.tenancy ~pid:(Pid.to_int evicted_pid) ~pages:1;
    observe t ~pid:evicted_pid ~vpn:evicted_vpn ~count:1 Ev.Unpin;
    Replacement.remove (Ni_core.find c evicted_pid).tracker evicted_vpn;
    Miss_classifier.note_invalidate c.classifier ~pid:evicted_pid
      ~vpn:evicted_vpn;
    Host_memory.unpin c.host evicted_pid ~vpn:evicted_vpn ~count:1;
    Tally.unpin c.tally ~pages:1
  end

(* Tenant quota admission: a full tenant first tries to shrink itself
   (evict+unpin one of this process's own pages outside the in-flight
   buffer); if it still has no headroom the pin is denied and the page
   simply keeps missing — cached <=> pinned is preserved. *)
let admitted t pid p ~vpn ~npages =
  let c = t.core in
  (not c.ten_active)
  || begin
       let ipid = Pid.to_int pid in
       if Arbiter.quota_remaining c.tenancy ~pid:ipid <= 0 then begin
         let victim = Replacement.select_outside p.tracker ~vpn ~npages in
         if victim >= 0 then Ni_core.unpin_victim c pid victim
       end;
       let ok = Arbiter.quota_remaining c.tenancy ~pid:ipid > 0 in
       if not ok then Arbiter.note_denied c.tenancy ~pid:ipid ~pages:1;
       ok
     end

(* Host interrupt handler: pin page [q] of the buffer [vpn, vpn +
   npages) and install its entry, then shrink the pinned set to the
   per-process limit via LRU. *)
let pin_page t pid p q ~vpn ~npages =
  let c = t.core in
  if Host_memory.pin_into c.host pid ~vpn:q ~count:1 t.frame then begin
    Tally.pin c.tally ~calls:1 ~pages:1;
    if c.ten_active then
      Arbiter.note_pin c.tenancy ~pid:(Pid.to_int pid) ~pages:1;
    observe t ~pid ~vpn:q ~count:1 Ev.Pin;
    Replacement.insert p.tracker q;
    insert t pid q t.frame.(0);
    match t.config.memory_limit_pages with
    | None -> ()
    | Some limit ->
      let stuck = ref false in
      while (not !stuck) && Replacement.size p.tracker > limit do
        let victim = Replacement.select_outside p.tracker ~vpn ~npages in
        (* Everything protected: give up this round. *)
        if victim < 0 then stuck := true
        else Ni_core.unpin_victim c pid victim
      done
  end

(* The engine's own check of a cached line: cached <=> pinned, so the
   page must be in the tracker. *)
let check_line san pid p vpn _frame =
  if not (Replacement.mem p.tracker vpn) then
    Sanitizer.recordf san ~code:"UV08"
      "%a vpn=%#x: cached page missing from the pinned-page tracker" Pid.pp
      pid vpn

let run_invariants t = Ni_core.run_invariants t.core

let create ?host ?sanitizer ?obs ?faults ?tenancy ~seed (config : config) =
  validate config;
  {
    config;
    core =
      Ni_core.create ?host ?sanitizer ?obs ?faults ?tenancy
        ~ledger:"pinned-page tracker"
        ~pinned:(fun p -> Replacement.size p.tracker)
        ~check_line config.cache;
    rng = Rng.create ~seed;
    frame = [| 0 |];
  }

let lookup t ~pid ~vpn ~npages =
  if npages < 1 then invalid_arg "Intr_engine.lookup: npages must be >= 1";
  add_process t pid;
  let c = t.core in
  let p = Ni_core.find c pid in
  if c.ten_active then Arbiter.note_lookup c.tenancy ~pid:(Pid.to_int pid);
  for q = vpn to vpn + npages - 1 do
    if Ni_core.spurious_invalidate c pid q then begin
      (* The page stays pinned (cached <=> pinned would otherwise
         break), so recovery re-installs the translation from the host
         page table without re-pinning. *)
      Ni_core.miss c pid q;
      issue_interrupt t pid q;
      (match Host_memory.translate c.host pid ~vpn:q with
      | None -> ()
      | Some frame ->
        insert t pid q frame;
        Replacement.touch p.tracker q);
      Ni_core.recover c pid ~vpn:q
    end
    else if Ni_core.probe c pid q >= 0 then Replacement.touch p.tracker q
    else begin
      issue_interrupt t pid q;
      (* A page past the translation table's last entry is never pinned:
         the NI reads the garbage frame for it (UP02). *)
      if q <= Translation_table.max_vpn && admitted t pid p ~vpn ~npages then
        pin_page t pid p q ~vpn ~npages
    end
  done;
  (* The kernel pins and unpins one page per call. *)
  Ni_core.finish c pid p ~vpn ~npages ~check_miss:false

let report t ~label = Ni_core.report t.core ~label

let mechanism = "intr"

let processes t = Ni_core.processes t.core

let remove_and_report t ~label =
  List.iter (fun pid -> ignore (remove_process t pid)) (processes t);
  report t ~label

let stepper (config : config) =
  Stepper.Intr
    {
      entries = config.cache.Ni_cache.entries;
      limit_pages = config.memory_limit_pages;
    }

let cost_paths (config : config) ~npages =
  {
    Stepper.Cost.paths = Stepper.Cost.intr_paths ~npages;
    cache_entries = config.cache.Ni_cache.entries;
    prefetch = 1;
  }
