(* What the two engines with a Shared UTLB-Cache, [Hier_engine] and
   [Intr_engine], both carry: the cache and its miss classifier, the
   process table, the tally, tenancy and the fault plane's spurious
   invalidation, the NI probe with its accounting and events, and the
   shadow checks (UV01, UV02, UV04, UV05, UV07, UV08). Each engine
   keeps only the steps it alone has. ['p] is the engine's per-process
   state. *)

module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Sanitizer = Utlb_sim.Sanitizer
module Probe = Utlb_obs.Probe
module Ev = Utlb_obs.Event
module Injector = Utlb_fault.Injector
module Arbiter = Utlb_tenant.Arbiter

module Pid_table = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal

  let hash = Pid.hash
end)

type 'p t = {
  host : Host_memory.t;
  cache : Ni_cache.t;
  classifier : Miss_classifier.t;
  procs : 'p Pid_table.t;
  sanitizer : Sanitizer.t option;
  probe : Probe.t;
  faults : Injector.t option;
  tenancy : Arbiter.t;
  ten_active : bool;
      (* [Arbiter.active tenancy], cached so the untenanted per-page
         path pays one local branch instead of a cross-module call. *)
  tally : Tally.t;
  (* The engine's side of the shadow checks: what it calls the record
     of its pins, how many pages that record holds, and its own check
     of a cached line (pid, process, vpn, frame). *)
  ledger : string;
  pinned : 'p -> int;
  check_line : Sanitizer.t -> Pid.t -> 'p -> int -> int -> unit;
}

let create ?host ?sanitizer ?obs ?faults ?tenancy ~ledger ~pinned ~check_line
    (cache : Ni_cache.config) =
  let host = match host with Some h -> h | None -> Host_memory.create () in
  let ni = Ni_cache.create cache in
  let tenancy = Option.value ~default:Arbiter.none tenancy in
  Arbiter.bind tenancy ~sets:(Ni_cache.sets ni);
  {
    host;
    cache = ni;
    classifier = Miss_classifier.create ~capacity:cache.Ni_cache.entries;
    procs = Pid_table.create 8;
    sanitizer;
    probe = Probe.of_scope_opt obs;
    faults;
    tenancy;
    ten_active = Arbiter.active tenancy;
    tally = Tally.create ();
    ledger;
    pinned;
    check_line;
  }

let observe c ~pid ~vpn ~count kind =
  c.probe.Probe.emit kind ~pid:(Pid.to_int pid) ~vpn ~count

let mem c pid = Pid_table.mem c.procs pid

let find c pid =
  match Pid_table.find c.procs pid with
  | p -> p
  | exception Not_found -> invalid_arg "unknown process"

let processes c =
  Pid_table.fold (fun pid _ acc -> pid :: acc) c.procs []
  |> List.sort Pid.compare

(* Admit a process with its state, setting its tenant cache window. *)
let admit c pid p =
  Host_memory.add_process c.host pid;
  Pid_table.replace c.procs pid p;
  if c.ten_active then
    match Arbiter.window c.tenancy ~pid:(Pid.to_int pid) with
    | None -> ()
    | Some (base, mask, offset) ->
      Ni_cache.set_window c.cache ~pid ~base ~mask ~offset

(* Process exit, after the engine released the [released] pages it
   pinned: every pin must have been matched by an unpin (Section 3.4's
   safety argument), then the process's lines and state go. *)
let retire c pid ~released =
  (match c.sanitizer with
  | None -> ()
  | Some san ->
    let leaked = Host_memory.pinned_pages c.host pid in
    if leaked <> 0 then
      Sanitizer.recordf san ~code:"UV01"
        "%a exit: %d pages still pinned after releasing every page the %s \
         tracks (pin leak)"
        Pid.pp pid leaked c.ledger;
    let recount = Host_memory.recount_pinned c.host pid in
    if recount <> leaked then
      Sanitizer.recordf san ~code:"UV08"
        "%a exit: host pin counter says %d pinned pages but a table walk \
         finds %d"
        Pid.pp pid leaked recount);
  ignore (Ni_cache.invalidate_process c.cache ~pid);
  if c.ten_active then
    Arbiter.note_unpin c.tenancy ~pid:(Pid.to_int pid) ~pages:released;
  Pid_table.remove c.procs pid

let recover c pid ~vpn =
  Option.iter Injector.note_recovery c.faults;
  observe c ~pid ~vpn ~count:Probe.no_count Ev.Fault_recover;
  Tally.recover c.tally

(* Fault plane: a spurious invalidation may knock this page's line out
   just before the probe. It only becomes visible (and worth
   recovering) if the line was actually resident. *)
let spurious_invalidate c pid vpn =
  match c.faults with
  | None -> false
  | Some inj ->
    Injector.cache_invalidate inj
    && Ni_cache.invalidate c.cache ~pid ~vpn
    &&
    (Miss_classifier.note_invalidate c.classifier ~pid ~vpn;
     observe c ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
     true)

(* An NI access the cache missed: counted, classified and observed. *)
let miss c pid vpn =
  if c.ten_active then
    Arbiter.note_ni_access c.tenancy ~pid:(Pid.to_int pid) ~hit:false;
  Tally.miss c.tally;
  ignore (Miss_classifier.classify c.classifier ~pid ~vpn);
  observe c ~pid ~vpn ~count:Probe.no_count Ev.Ni_miss

(* The NI probe of one page: the frame, or -1 after [miss]. *)
let probe c pid vpn =
  let frame = Ni_cache.lookup c.cache ~pid ~vpn in
  if frame >= 0 then begin
    if c.ten_active then
      Arbiter.note_ni_access c.tenancy ~pid:(Pid.to_int pid) ~hit:true;
    Miss_classifier.note_hit c.classifier ~pid ~vpn;
    observe c ~pid ~vpn ~count:Probe.no_count Ev.Ni_hit
  end
  else miss c pid vpn;
  frame

(* Fill a line on behalf of [pid]; [true] when it displaced one, which
   [Ni_cache.evicted_*] then describe. *)
let insert c pid vpn frame =
  Ni_cache.insert c.cache ~pid ~vpn ~frame
  && begin
       let evicted_pid = Ni_cache.evicted_pid c.cache in
       if c.ten_active then
         Arbiter.note_eviction c.tenancy
           ~victim_pid:(Pid.to_int evicted_pid)
           ~by_pid:(Pid.to_int pid);
       observe c ~pid:evicted_pid ~vpn:(Ni_cache.evicted_vpn c.cache)
         ~count:Probe.no_count Ev.Ni_evict;
       true
     end

(* Unpin one of [pid]'s pages the replacement policy gave up: drop its
   line and its host pin. The engine clears its own records of it. *)
let unpin_victim c pid victim =
  observe c ~pid ~vpn:victim ~count:1 Ev.Unpin;
  if Ni_cache.invalidate c.cache ~pid ~vpn:victim then
    Miss_classifier.note_invalidate c.classifier ~pid ~vpn:victim;
  Host_memory.unpin c.host pid ~vpn:victim ~count:1;
  if c.ten_active then
    Arbiter.note_unpin c.tenancy ~pid:(Pid.to_int pid) ~pages:1;
  Tally.unpin c.tally ~pages:1

(* Shadow check of one page: a cached translation must not be the
   garbage frame, must pass the engine's own check, must agree with
   the host page table, and its page must still be pinned. *)
let check_page c san pid p vpn =
  let frame = Ni_cache.peek c.cache ~pid ~vpn in
  if frame >= 0 then begin
    if frame = Host_memory.garbage_frame c.host then
      Sanitizer.recordf san ~code:"UV02"
        "%a vpn=%#x: Shared UTLB-Cache holds the garbage frame" Pid.pp pid
        vpn;
    c.check_line san pid p vpn frame;
    match Host_memory.translate c.host pid ~vpn with
    | Some f when f = frame ->
      if Host_memory.pin_count c.host pid ~vpn = 0 then
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
        vpn
  end

(* Close a lookup of [npages] pages at [vpn]: shadow-check the pages it
   touched, fold its counts and hand the batched events to the scope in
   one replay (the end of a lookup is the engines' dispatch
   boundary). *)
let finish c pid p ~vpn ~npages ~check_miss =
  (match c.sanitizer with
  | None -> ()
  | Some san ->
    for q = vpn to vpn + npages - 1 do
      check_page c san pid p q
    done);
  let outcome = Tally.finish c.tally ~npages ~check_miss in
  c.probe.Probe.flush ();
  outcome

(* Full sweep: every cache line must belong to a live process and pass
   [check_page]; every process's pin record must agree with the host's
   counter and with a page-table walk; the miss classifier's shadow
   cache must be consistent. *)
let run_invariants c =
  match c.sanitizer with
  | None -> ()
  | Some san ->
    Ni_cache.iter_valid c.cache (fun ~pid ~vpn ~frame ->
        match Pid_table.find_opt c.procs pid with
        | None ->
          Sanitizer.recordf san ~code:"UV04"
            "%a vpn=%#x: cache line (frame %d) for a departed process"
            Pid.pp pid vpn frame
        | Some p -> check_page c san pid p vpn);
    Pid_table.iter
      (fun pid p ->
        let tracked = c.pinned p in
        let host_pinned = Host_memory.pinned_pages c.host pid in
        if tracked <> host_pinned then
          Sanitizer.recordf san ~code:"UV08"
            "%a: %s tracks %d pages but the host reports %d pinned" Pid.pp
            pid c.ledger tracked host_pinned;
        let recount = Host_memory.recount_pinned c.host pid in
        if recount <> host_pinned then
          Sanitizer.recordf san ~code:"UV08"
            "%a: host pin counter says %d pinned pages but a table walk \
             finds %d"
            Pid.pp pid host_pinned recount)
      c.procs;
    List.iter
      (fun msg -> Sanitizer.recordf san ~code:"UV07" "miss classifier: %s" msg)
      (Miss_classifier.self_check c.classifier)

let report c ~label =
  Tally.report c.tally ~label
    ~compulsory:(Miss_classifier.compulsory c.classifier)
    ~capacity:(Miss_classifier.capacity_misses c.classifier)
    ~conflict:(Miss_classifier.conflict c.classifier)
    ~isolation:(Arbiter.snapshot c.tenancy)
