module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Rng = Utlb_sim.Rng
module Sanitizer = Utlb_sim.Sanitizer
module Probe = Utlb_obs.Probe
module Ev = Utlb_obs.Event
module Injector = Utlb_fault.Injector
module Arbiter = Utlb_tenant.Arbiter

type config = {
  sram_budget_entries : int;
  processes : int;
  policy : Replacement.policy;
}

let default_config =
  { sram_budget_entries = 8192; processes = 5; policy = Replacement.Lru }

module Pid_table = Ni_core.Pid_table

type t = {
  config : config;
  host : Host_memory.t;
  rng : Rng.t;
  per_process : int;
  tables : Per_process.t Pid_table.t;
  sanitizer : Sanitizer.t option;
  probe : Probe.t;
  faults : Injector.t option;
  tenancy : Arbiter.t;
  ten_active : bool;
  tally : Tally.t;
}

let entries_per_process (config : config) =
  if config.processes <= 0 then 0
  else config.sram_budget_entries / config.processes

let validate config =
  if config.processes <= 0 then
    invalid_arg "Pp_engine: processes must be positive";
  if entries_per_process config <= 0 then
    invalid_arg "Pp_engine: budget divides to zero entries"

let create ?host ?sanitizer ?obs ?faults ?tenancy ~seed config =
  validate config;
  let per_process = entries_per_process config in
  let host = match host with Some h -> h | None -> Host_memory.create () in
  let tenancy = Option.value ~default:Arbiter.none tenancy in
  {
    config;
    host;
    rng = Rng.create ~seed;
    per_process;
    tables = Pid_table.create 8;
    sanitizer;
    probe = Probe.of_scope_opt obs;
    faults;
    tenancy;
    ten_active = Arbiter.active tenancy;
    tally = Tally.create ();
  }

let observe t ~pid ~vpn ~count kind =
  t.probe.Probe.emit kind ~pid:(Pid.to_int pid) ~vpn ~count

let run_invariants t =
  match t.sanitizer with
  | None -> ()
  | Some san ->
    Pid_table.iter
      (fun pid pp ->
        List.iter
          (fun msg ->
            Sanitizer.recordf san ~code:"UV08" "%a: %s" Pid.pp pid msg)
          (Per_process.self_check pp))
      t.tables

let table_entries_per_process t = t.per_process

(* A process's table entries: the static SRAM split, further capped by
   its tenant's quota split evenly across the tenant's declared pids
   (a static mechanism gets a static quota). *)
let table_entries_for t pid =
  if not t.ten_active then t.per_process
  else begin
    let ipid = Pid.to_int pid in
    match Arbiter.config t.tenancy with
    | None -> t.per_process
    | Some cfg -> (
      match Utlb_tenant.Tenant.tenant_of_pid cfg ~pid:ipid with
      | None -> t.per_process
      | Some id -> (
        let policy = Utlb_tenant.Tenant.policy cfg id in
        match policy.Utlb_tenant.Tenant.quota with
        | None -> t.per_process
        | Some q ->
          let npids = max 1 (List.length policy.Utlb_tenant.Tenant.pids) in
          min t.per_process (max 1 (q / npids))))
  end

let table_for t pid =
  match Pid_table.find t.tables pid with
  | pp -> pp
  | exception Not_found ->
    if Pid_table.length t.tables >= t.config.processes then
      invalid_arg "Pp_engine: more processes than allocated tables";
    let pp =
      Per_process.create ~host:t.host ~pid
        ~table_entries:(table_entries_for t pid)
        ~policy:t.config.policy
        ~seed:(Rng.next_int64 t.rng)
        ()
    in
    Pid_table.replace t.tables pid pp;
    pp

let add_process t pid = ignore (table_for t pid)

let remove_process t pid =
  match Pid_table.find_opt t.tables pid with
  | None -> 0
  | Some pp ->
    let released = Per_process.release pp in
    (match t.sanitizer with
    | None -> ()
    | Some san ->
      let leaked = Host_memory.pinned_pages t.host pid in
      if leaked <> 0 then
        Sanitizer.recordf san ~code:"UV01"
          "%a exit: %d pages still pinned after releasing the \
           per-process table (pin leak)"
          Pid.pp pid leaked;
      let recount = Host_memory.recount_pinned t.host pid in
      if recount <> leaked then
        Sanitizer.recordf san ~code:"UV08"
          "%a exit: host pin counter says %d pinned pages but a table \
           walk finds %d"
          Pid.pp pid leaked recount);
    if t.ten_active then
      Arbiter.note_unpin t.tenancy ~pid:(Pid.to_int pid) ~pages:released;
    Pid_table.remove t.tables pid;
    released

let processes t =
  Pid_table.fold (fun pid _ acc -> pid :: acc) t.tables []
  |> List.sort Pid.compare

let lookup t ~pid ~vpn ~npages =
  let pp = table_for t pid in
  if t.ten_active then Arbiter.note_lookup t.tenancy ~pid:(Pid.to_int pid);
  let pins = Per_process.pins pp and unpins = Per_process.unpins pp in
  let check_miss = Per_process.lookup pp ~vpn ~npages in
  (* The table pins and unpins one page per call; the NI never
     misses. *)
  let pinned = Per_process.pins pp - pins in
  let unpinned = Per_process.unpins pp - unpins in
  Tally.pin t.tally ~calls:pinned ~pages:pinned;
  Tally.unpin t.tally ~pages:unpinned;
  if check_miss then observe t ~pid ~vpn ~count:pinned Ev.Check_miss;
  if t.ten_active then begin
    let ipid = Pid.to_int pid in
    (* Once installed, the NI-resident table always answers: npages
       hits against this tenant's private slice. *)
    for _ = 1 to npages do
      Arbiter.note_ni_access t.tenancy ~pid:ipid ~hit:true
    done;
    if pinned > 0 then Arbiter.note_pin t.tenancy ~pid:ipid ~pages:pinned;
    if unpinned > 0 then Arbiter.note_unpin t.tenancy ~pid:ipid ~pages:unpinned
  end;
  (* Fault plane: installing the newly pinned pages' entries into the
     NI-resident table is itself a DMA, which may fail and retry; an
     exhausted budget falls back to interrupt-path installation. Either
     way the entries land and the lookup proceeds — graceful
     degradation, counted as a recovery. *)
  (match t.faults with
  | Some inj when pinned > 0 -> (
    let recover () =
      Injector.note_recovery inj;
      observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_recover;
      Tally.recover t.tally
    in
    match Injector.dma_attempts inj with
    | Some 0 -> ()
    | Some failed ->
      observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
      observe t ~pid ~vpn ~count:failed Ev.Fault_retry;
      recover ()
    | None ->
      let retries = max 0 (Injector.plan inj).Utlb_fault.Plan.dma_retries in
      observe t ~pid ~vpn ~count:Probe.no_count Ev.Fault_inject;
      observe t ~pid ~vpn ~count:(1 + retries) Ev.Fault_retry;
      Tally.interrupt t.tally 1;
      observe t ~pid ~vpn ~count:Probe.no_count Ev.Interrupt;
      recover ())
  | Some _ | None -> ());
  (* Per-page reporting loops exist only to feed the probe; with it
     inactive they are skipped entirely. *)
  if t.probe.Probe.active then begin
    (* The per-process table pins page at a time (one ioctl each), and
       a table eviction unpins its page immediately. *)
    for _ = 1 to pinned do
      observe t ~pid ~vpn ~count:1 Ev.Pin
    done;
    for _ = 1 to unpinned do
      observe t ~pid ~vpn:Probe.no_vpn ~count:1 Ev.Unpin
    done;
    (* Once pinned, the NI-resident table always answers: npages hits. *)
    for q = vpn to vpn + npages - 1 do
      observe t ~pid ~vpn:q ~count:Probe.no_count Ev.Ni_hit
    done
  end;
  let outcome = Tally.finish t.tally ~npages ~check_miss in
  t.probe.Probe.flush ();
  outcome

let report t ~label =
  Tally.report t.tally ~label ~compulsory:0 ~capacity:0 ~conflict:0
    ~isolation:(Arbiter.snapshot t.tenancy)

let mechanism = "per-process"

let remove_and_report t ~label =
  List.iter (fun pid -> ignore (remove_process t pid)) (processes t);
  report t ~label

let occupancy t pid =
  match Pid_table.find_opt t.tables pid with
  | Some pp -> Per_process.occupancy pp
  | None -> 0

let stepper (config : config) =
  Stepper.Static
    { processes = config.processes; share = entries_per_process config }

let cost_paths (config : config) ~npages =
  {
    Stepper.Cost.paths = Stepper.Cost.static_paths ~npages;
    cache_entries = entries_per_process config;
    prefetch = 1;
  }
