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

module Pid_table = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal

  let hash = Pid.hash
end)

(* Per process: an LRU tracker over the pages currently pinned (equal to
   the pages whose translation sits in the NI cache). *)
type process = { tracker : Replacement.t }

(* The [?sanitizer] option compiled into a record at [create] (the
   [Utlb_obs.Probe] treatment): the post-lookup shadow scan is one
   unconditional indirect call, a shared no-op when absent. Cold paths
   still use the raw [sanitizer] field. *)
type san = {
  san_active : bool;
  san_pages : t -> Pid.t -> process -> int -> int -> unit;
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
  mutable totals : Report.t;
}

(* [create] lives after the sanitizer hooks it compiles (see
   [compile_san] below). *)

let observe t ~pid ~vpn ~count kind =
  t.probe.Probe.emit kind ~pid:(Pid.to_int pid) ~vpn ~count

let host t = t.host

let cache t = t.cache

let add_process t pid =
  if not (Pid_table.mem t.procs pid) then begin
    Host_memory.add_process t.host pid;
    Pid_table.replace t.procs pid
      { tracker = Replacement.create Replacement.Lru ~rng:(Rng.split t.rng) };
    if t.ten_active then
      match Arbiter.window t.tenancy ~pid:(Pid.to_int pid) with
      | None -> ()
      | Some (base, mask, offset) ->
        Ni_cache.set_window t.cache ~pid ~base ~mask ~offset
  end

let proc t pid =
  match Pid_table.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg "Intr_engine: unknown process"

let pinned_pages t pid = Replacement.size (proc t pid).tracker

let remove_process t pid =
  match Pid_table.find_opt t.procs pid with
  | None -> 0
  | Some p ->
    let released = ref 0 in
    let continue = ref true in
    while !continue do
      match Replacement.select_victim p.tracker () with
      | None -> continue := false
      | Some vpn ->
        Host_memory.unpin t.host pid ~vpn ~count:1;
        incr released
    done;
    (match t.sanitizer with
    | None -> ()
    | Some san ->
      let leaked = Host_memory.pinned_pages t.host pid in
      if leaked <> 0 then
        Sanitizer.recordf san ~code:"UV01"
          "%a exit: %d pages still pinned after draining the tracker \
           (pin leak)"
          Pid.pp pid leaked;
      let recount = Host_memory.recount_pinned t.host pid in
      if recount <> leaked then
        Sanitizer.recordf san ~code:"UV08"
          "%a exit: host pin counter says %d pinned pages but a table \
           walk finds %d"
          Pid.pp pid leaked recount);
    ignore (Ni_cache.invalidate_process t.cache ~pid);
    if t.ten_active then
      Arbiter.note_unpin t.tenancy ~pid:(Pid.to_int pid) ~pages:!released;
    Pid_table.remove t.procs pid;
    !released

let note_recovery t pid ~vpn () =
  Option.iter Injector.note_recovery t.faults;
  observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_recover;
  t.totals <-
    {
      t.totals with
      Report.fault_recoveries = t.totals.Report.fault_recoveries + 1;
    }

(* One host interrupt, with the fault plane's timeout + re-issue loop:
   each re-issue costs another dispatch (counted and observed like a
   real interrupt) and a delivery that needed one is a recovery.
   Returns the dispatches made. *)
let issue_interrupt t pid q =
  observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Interrupt;
  match t.faults with
  | None -> 1
  | Some inj ->
    let reissues = Injector.irq_reissues inj in
    if reissues > 0 then begin
      observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Fault_inject;
      for _ = 1 to reissues do
        observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Interrupt
      done;
      observe t ~pid ~vpn:q ~count:reissues Ev.Fault_retry;
      note_recovery t pid ~vpn:q ()
    end;
    1 + reissues

(* Cache eviction implies unpinning the evicted page. [pid] is the
   process whose lookup evicted it. *)
let evict_unpin t pid (evicted_pid, evicted_vpn, _frame) =
  if t.ten_active then begin
    Arbiter.note_eviction t.tenancy
      ~victim_pid:(Pid.to_int evicted_pid)
      ~by_pid:(Pid.to_int pid);
    Arbiter.note_unpin t.tenancy ~pid:(Pid.to_int evicted_pid) ~pages:1
  end;
  observe t ~pid:evicted_pid ~vpn:evicted_vpn ~count:Probe.no_count
    Ev.Ni_evict;
  observe t ~pid:evicted_pid ~vpn:evicted_vpn ~count:1 Ev.Unpin;
  let ep = proc t evicted_pid in
  Replacement.remove ep.tracker evicted_vpn;
  Miss_classifier.note_invalidate t.classifier ~pid:evicted_pid
    ~vpn:evicted_vpn;
  Host_memory.unpin t.host evicted_pid ~vpn:evicted_vpn ~count:1

(* Shadow check of one page: a cached translation must agree with the
   host page table and its page must still be pinned (in this design,
   cached <=> pinned). *)
let check_cached_page t san pid p vpn =
  match Ni_cache.peek t.cache ~pid ~vpn with
  | None -> ()
  | Some frame ->
    if frame = Host_memory.garbage_frame t.host then
      Sanitizer.recordf san ~code:"UV02"
        "%a vpn=%#x: NI cache holds the garbage frame" Pid.pp pid vpn;
    if not (Replacement.mem p.tracker vpn) then
      Sanitizer.recordf san ~code:"UV08"
        "%a vpn=%#x: cached page missing from the pinned-page tracker"
        Pid.pp pid vpn;
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
    Ni_cache.iter_valid t.cache (fun ~pid ~vpn ~frame:_ ->
        match Pid_table.find_opt t.procs pid with
        | None ->
          Sanitizer.recordf san ~code:"UV04"
            "%a vpn=%#x: cache line for a departed process" Pid.pp pid vpn
        | Some p -> check_cached_page t san pid p vpn);
    Pid_table.iter
      (fun pid p ->
        let tracked = Replacement.size p.tracker in
        let host_pinned = Host_memory.pinned_pages t.host pid in
        if tracked <> host_pinned then
          Sanitizer.recordf san ~code:"UV08"
            "%a: tracker holds %d pages but the host reports %d pinned"
            Pid.pp pid tracked host_pinned;
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
  { san_active = false; san_pages = (fun _ _ _ _ _ -> ()) }

let compile_san = function
  | None -> no_san
  | Some san ->
    {
      san_active = true;
      san_pages =
        (fun t pid p vpn npages ->
          for q = vpn to vpn + npages - 1 do
            check_cached_page t san pid p q
          done);
    }

let create ?host ?sanitizer ?obs ?faults ?tenancy ~seed (config : config) =
  validate config;
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
    totals = Report.empty ~label:"intr";
  }

let lookup t ~pid ~vpn ~npages =
  if npages < 1 then invalid_arg "Intr_engine.lookup: npages must be >= 1";
  add_process t pid;
  let p = proc t pid in
  if t.ten_active then Arbiter.note_lookup t.tenancy ~pid:(Pid.to_int pid);
  let misses = ref 0 in
  let interrupts = ref 0 in
  let pinned = ref 0 in
  let unpinned = ref 0 in
  for q = vpn to vpn + npages - 1 do
    (* Fault plane: a spurious invalidation may knock this page's line
       out just before the probe. The page stays pinned (cached <=>
       pinned would otherwise break), so recovery re-installs the
       translation from the host page table without re-pinning. *)
    let injected_invalidate =
      match t.faults with
      | None -> false
      | Some inj ->
        Injector.cache_invalidate inj
        && Ni_cache.invalidate t.cache ~pid ~vpn:q
        &&
        (Miss_classifier.note_invalidate t.classifier ~pid ~vpn:q;
         observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Fault_inject;
         true)
    in
    if injected_invalidate then begin
      if t.ten_active then
        Arbiter.note_ni_access t.tenancy ~pid:(Pid.to_int pid) ~hit:false;
      incr misses;
      ignore (Miss_classifier.classify t.classifier ~pid ~vpn:q);
      observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Ni_miss;
      interrupts := !interrupts + issue_interrupt t pid q;
      (match Host_memory.translate t.host pid ~vpn:q with
      | None -> ()
      | Some frame ->
        (match Ni_cache.insert t.cache ~pid ~vpn:q ~frame with
        | None -> ()
        | Some evicted ->
          evict_unpin t pid evicted;
          incr unpinned);
        Replacement.touch p.tracker q);
      note_recovery t pid ~vpn:q ()
    end
    else
    match Ni_cache.lookup t.cache ~pid ~vpn:q with
    | Some _ ->
      if t.ten_active then
        Arbiter.note_ni_access t.tenancy ~pid:(Pid.to_int pid) ~hit:true;
      Miss_classifier.note_hit t.classifier ~pid ~vpn:q;
      observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Ni_hit;
      Replacement.touch p.tracker q
    | None ->
      if t.ten_active then
        Arbiter.note_ni_access t.tenancy ~pid:(Pid.to_int pid) ~hit:false;
      incr misses;
      ignore (Miss_classifier.classify t.classifier ~pid ~vpn:q);
      observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Ni_miss;
      interrupts := !interrupts + issue_interrupt t pid q;
      (* A page past the translation table's last entry is never pinned:
         the NI reads the garbage frame for it (UP02). *)
      if q > Translation_table.max_vpn then ()
      else
      (* Tenant quota admission: a full tenant first tries to shrink
         itself (evict+unpin one of this process's own pages); if it
         still has no headroom the pin is denied and the page simply
         keeps missing — cached <=> pinned is preserved. *)
      let admitted =
        (not t.ten_active)
        || begin
             let ipid = Pid.to_int pid in
             if Arbiter.quota_remaining t.tenancy ~pid:ipid <= 0 then begin
               match
                 Replacement.select_victim p.tracker
                   ~protect:(fun page -> page >= vpn && page < vpn + npages)
                   ()
               with
               | Some victim ->
                 observe t ~pid ~vpn:victim ~count:1 Ev.Unpin;
                 if Ni_cache.invalidate t.cache ~pid ~vpn:victim then
                   Miss_classifier.note_invalidate t.classifier ~pid
                     ~vpn:victim;
                 Host_memory.unpin t.host pid ~vpn:victim ~count:1;
                 Arbiter.note_unpin t.tenancy ~pid:ipid ~pages:1;
                 incr unpinned
               | None -> ()
             end;
             let ok = Arbiter.quota_remaining t.tenancy ~pid:ipid > 0 in
             if not ok then Arbiter.note_denied t.tenancy ~pid:ipid ~pages:1;
             ok
           end
      in
      if not admitted then ()
      else
      (* Host interrupt handler: pin the page and install the entry. *)
      (match Host_memory.pin t.host pid ~vpn:q ~count:1 with
      | Error `Out_of_memory -> ()
      | Ok frames ->
        incr pinned;
        if t.ten_active then
          Arbiter.note_pin t.tenancy ~pid:(Pid.to_int pid) ~pages:1;
        observe t ~pid ~vpn:q ~count:1 Ev.Pin;
        Replacement.insert p.tracker q;
        (match Ni_cache.insert t.cache ~pid ~vpn:q ~frame:frames.(0) with
        | None -> ()
        | Some evicted ->
          evict_unpin t pid evicted;
          incr unpinned);
        (* Per-process memory limit: shrink the pinned set via LRU. *)
        (match t.config.memory_limit_pages with
        | None -> ()
        | Some limit ->
          let stuck = ref false in
          while (not !stuck) && Replacement.size p.tracker > limit do
            match
              Replacement.select_victim p.tracker
                ~protect:(fun page -> page >= vpn && page < vpn + npages)
                ()
            with
            | None ->
              (* Everything protected: give up this round. *)
              stuck := true
            | Some victim ->
              observe t ~pid ~vpn:victim ~count:1 Ev.Unpin;
              if Ni_cache.invalidate t.cache ~pid ~vpn:victim then
                Miss_classifier.note_invalidate t.classifier ~pid ~vpn:victim;
              Host_memory.unpin t.host pid ~vpn:victim ~count:1;
              if t.ten_active then
                Arbiter.note_unpin t.tenancy ~pid:(Pid.to_int pid) ~pages:1;
              incr unpinned
          done))
  done;
  t.san.san_pages t pid p vpn npages;
  let tot = t.totals in
  t.totals <-
    {
      tot with
      Report.lookups = tot.Report.lookups + 1;
      ni_miss_lookups =
        (tot.Report.ni_miss_lookups + if !misses > 0 then 1 else 0);
      ni_page_accesses = tot.Report.ni_page_accesses + npages;
      ni_page_misses = tot.Report.ni_page_misses + !misses;
      pin_calls = tot.Report.pin_calls + !pinned;
      pages_pinned = tot.Report.pages_pinned + !pinned;
      unpin_calls = tot.Report.unpin_calls + !unpinned;
      pages_unpinned = tot.Report.pages_unpinned + !unpinned;
      interrupts = tot.Report.interrupts + !interrupts;
    };
  t.probe.Probe.flush ();
  if !misses = 0 && !interrupts = 0 && !pinned = 0 && !unpinned = 0 then
    Engine_intf.unchanged
  else
    (* The kernel pins and unpins one page per call. *)
    {
      Engine_intf.check_miss = false;
      pin_calls = !pinned;
      pages_pinned = !pinned;
      unpin_calls = !unpinned;
      pages_unpinned = !unpinned;
      ni_misses = !misses;
      entries_fetched = 0;
      interrupts = !interrupts;
    }

let report t ~label =
  {
    t.totals with
    Report.label;
    compulsory = Miss_classifier.compulsory t.classifier;
    capacity = Miss_classifier.capacity_misses t.classifier;
    conflict = Miss_classifier.conflict t.classifier;
    isolation = Arbiter.snapshot t.tenancy;
  }



let mechanism = "intr"

let processes t =
  Pid_table.fold (fun pid _ acc -> pid :: acc) t.procs []
  |> List.sort Pid.compare

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
