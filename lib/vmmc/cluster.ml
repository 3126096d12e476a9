module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine
module Rng = Utlb_sim.Rng
module Stats = Utlb_sim.Stats
module Pid = Utlb_mem.Pid
module Addr = Utlb_mem.Addr
module Nic = Utlb_nic.Nic
module Dma = Utlb_nic.Dma
module Mcp = Utlb_nic.Mcp
module Command_queue = Utlb_nic.Command_queue
module Fabric = Utlb_net.Fabric
module Demux = Utlb_net.Demux
module Channel = Utlb_net.Channel
module Link = Utlb_net.Link
module Hier_engine = Utlb.Hier_engine
module Engine_intf = Utlb.Engine_intf
module Stepper = Utlb.Stepper
module Cost_model = Utlb.Cost_model

let log_src = Logs.Src.create "utlb.vmmc" ~doc:"VMMC cluster"

module Log = (val Logs.src_log log_src : Logs.LOG)

type topology =
  | Star of int
  | Chain of { switches : int; hosts_per_switch : int }

type config = {
  topology : topology;
  seed : int64;
  translation : Utlb.Sim_driver.packed;
  faults : Link.fault_model;
  channel_window : int;
  command_slots : int;
}

let default_config =
  {
    topology = Star 4;
    seed = 0x564D4D43L; (* "VMMC" *)
    translation =
      Utlb.Sim_driver.Packed ((module Hier_engine), Hier_engine.default_config);
    faults = Link.no_faults;
    channel_window = 16;
    command_slots = 64;
  }

type export_entry = {
  owner : Pid.t;
  base_vaddr : int;
  len : int;
  key : int;
  mutable redirect_vaddr : int option;
}

(* Metadata that cannot travel through the int-only command ring: the
   import target and completion callback, queued FIFO per process in
   lockstep with the ring. *)
type import_target = { dest_node : int; export_id : int; key : int }

type cmd_meta =
  | Send_meta of {
      target : import_target;
      offset : int;
      on_complete : (unit -> unit) option;
      posted_at : Time.t;
      ni_cost_us : float;  (** NI translation cost of the source pages. *)
    }
  | Fetch_meta of {
      target : import_target;
      offset : int;
      len : int;
      lvaddr : int;
      on_complete : (unit -> unit) option;
    }

type fetch_waiter = {
  w_lvaddr : int;
  w_pid : Pid.t;
  w_on_complete : (unit -> unit) option;
}

(* The engine one node runs, created from [config.translation]. *)
type translator =
  | Translator : (module Engine_intf.S with type t = 'e) * 'e -> translator

type node_rt = {
  id : int;
  nic : Nic.t;
  translator : translator;
  exports : (int, export_entry) Hashtbl.t;
  waiters : (int, fetch_waiter) Hashtbl.t;
  mutable next_export : int;
  mutable next_req : int;
  mutable channels_to : Channel.t option array;
  procs : (int, process) Hashtbl.t; (* by pid int *)
}

and notification = {
  n_export_id : int;
  n_offset : int;
  n_len : int;
  n_time_us : float;
}

and process = {
  cluster : cluster;
  rt : node_rt;
  pid : Pid.t;
  memory : Memory_image.t;
  ring : Command_queue.t;
  meta : cmd_meta Queue.t;
  notifications : notification Queue.t;
  mutable alive : bool;
}

and cluster = {
  config : config;
  engine : Engine.t;
  rng : Rng.t;
  fabric : Fabric.t;
  demux : Demux.t;
  node_rts : node_rt array;
  model : Cost_model.t;
  semantics : Stepper.semantics;  (* Picks [translate_pages]' prices. *)
  prefetch : int;  (* Entries one NI miss fetches. *)
  mutable next_pid : int;
  mutable sends_completed : int;
  mutable fetches_completed : int;
  mutable stores_received : int;
  mutable garbage_stores : int;
  mutable ring_desyncs : int;
  send_latency : Stats.Summary.t;
  (* Installed after creation: the firmware receive path; channels
     created later wire their receivers through it. *)
  mutable on_msg : (src:int -> dst:int -> bytes -> unit) option;
}

type t = cluster

let page_size = Addr.page_size

let engine t = t.engine

let node_count t = Array.length t.node_rts

let now_us t = Time.to_us (Engine.now t.engine)

let nic t ~node = t.node_rts.(node).nic

let utlb_report t ~node =
  match t.node_rts.(node).translator with
  | Translator ((module E), engine) ->
    E.report engine ~label:(Printf.sprintf "vmmc-node%d" node)

let sends_completed t = t.sends_completed

let fetches_completed t = t.fetches_completed

let stores_received t = t.stores_received

let garbage_stores t = t.garbage_stores

let ring_desyncs t = t.ring_desyncs

let retransmissions t =
  let total = ref 0 in
  Array.iter
    (fun rt ->
      Array.iter
        (function
          | Some ch -> total := !total + Channel.retransmissions ch
          | None -> ())
        rt.channels_to)
    t.node_rts;
  !total

let send_latency t = t.send_latency

let channel_to t rt dest =
  match rt.channels_to.(dest) with
  | Some ch -> ch
  | None ->
    let ch =
      Channel.create ~window:t.config.channel_window ~demux:t.demux
        ~src:rt.id ~dst:dest ()
    in
    rt.channels_to.(dest) <- Some ch;
    (* Wire the receive side of this channel into the destination's
       firmware message handler (installed at cluster creation). *)
    (match t.on_msg with
    | Some hook -> Channel.set_receiver ch (hook ~src:rt.id ~dst:dest)
    | None -> failwith "Cluster: receive hook not installed");
    ch

let pages_of ~vaddr ~len =
  let vpn = vaddr / page_size in
  let npages = Addr.pages_spanned (Addr.Vaddr.of_int vaddr) ~bytes:len in
  (vpn, max 1 npages)

(* One translation through the node's engine, reduced to (host-side
   cost, NI-side cost) in microseconds, priced by the engine's pin
   protocol.

   UTLB charges the user-level check/pin/unpin on the host and cheap
   DMA refills on the NI. The interrupt-based baseline charges nothing
   on the host (there is no user-level state) but every NI miss costs an
   interrupt dispatch plus a kernel pin, and every eviction a kernel
   unpin — the Section 6.2 cost structure, now applied end to end.
   Per-process tables charge UTLB's host side and a direct table read
   per page on the NI. *)
type translation_cost = { host_us : float; ni_us : float; ni_misses : int }

let translate_pages t rt ~pid ~vpn ~npages =
  let model = t.model in
  let (o : Engine_intf.outcome) =
    match rt.translator with
    | Translator ((module E), engine) -> E.lookup engine ~pid ~vpn ~npages
  in
  match t.semantics with
  | Stepper.Hier _ ->
    let pin =
      if o.pages_pinned > 0 then Cost_model.pin_us model ~pages:o.pages_pinned
      else 0.0
    in
    let unpin =
      Cost_model.unpin_us model ~pages:1 *. float_of_int o.pages_unpinned
    in
    {
      host_us = Cost_model.user_check_us model +. pin +. unpin;
      ni_us =
        (Cost_model.ni_hit_us model *. float_of_int npages)
        +. Cost_model.ni_miss_us model ~entries:t.prefetch
           *. float_of_int o.ni_misses;
      ni_misses = o.ni_misses;
    }
  | Stepper.Intr _ ->
    {
      host_us = 0.0;
      ni_us =
        (Cost_model.ni_hit_us model *. float_of_int npages)
        +. (Cost_model.intr_us model +. Cost_model.kernel_pin_us model)
           *. float_of_int o.interrupts
        +. Cost_model.kernel_unpin_us model
           *. float_of_int o.pages_unpinned;
      ni_misses = o.ni_misses;
    }
  | Stepper.Static _ ->
    let pin =
      if o.pages_pinned > 0 then Cost_model.pin_us model ~pages:o.pages_pinned
      else 0.0
    in
    let unpin =
      Cost_model.unpin_us model ~pages:1 *. float_of_int o.pages_unpinned
    in
    {
      host_us = Cost_model.user_check_us model +. pin +. unpin;
      ni_us = Cost_model.ni_direct_us model *. float_of_int npages;
      ni_misses = 0;
    }

(* Deliver a store to its destination buffer: translate the target
   pages through the receiving node's UTLB (pinning on demand — the
   transfer-redirection path), then DMA to host memory. *)
let deliver_store t rt (msg_export : int) key offset data =
  match Hashtbl.find_opt rt.exports msg_export with
  | None ->
    Log.warn (fun m ->
        m "node%d: store to unknown export %d -> garbage page" rt.id
          msg_export);
    t.garbage_stores <- t.garbage_stores + 1
  | Some e when e.key <> key ->
    Log.warn (fun m ->
        m "node%d: store with bad key to export %d -> garbage page" rt.id
          msg_export);
    t.garbage_stores <- t.garbage_stores + 1
  | Some e when offset < 0 || offset + Bytes.length data > e.len ->
    t.garbage_stores <- t.garbage_stores + 1
  | Some e ->
    let base = Option.value ~default:e.base_vaddr e.redirect_vaddr in
    let dest_vaddr = base + offset in
    (match Hashtbl.find_opt rt.procs (Pid.to_int e.owner) with
    | None -> t.garbage_stores <- t.garbage_stores + 1
    | Some proc ->
      let vpn, npages = pages_of ~vaddr:dest_vaddr ~len:(Bytes.length data) in
      let cost = translate_pages t rt ~pid:e.owner ~vpn ~npages in
      ignore
        (Engine.schedule t.engine
           ~delay:(Time.of_us (cost.host_us +. cost.ni_us)) (fun () ->
             Dma.nic_to_host (Nic.dma rt.nic) ~data ~on_done:(fun data ->
                 Memory_image.write proc.memory ~vaddr:dest_vaddr data;
                 Queue.push
                   {
                     n_export_id = msg_export;
                     n_offset = offset;
                     n_len = Bytes.length data;
                     n_time_us = Time.to_us (Engine.now t.engine);
                   }
                   proc.notifications;
                 t.stores_received <- t.stores_received + 1))))

let deliver_fetch_request t rt ~src req_id export_id key offset len =
  let reply ok data =
    let ch = channel_to t rt src in
    Channel.send ch
      (Message.to_bytes (Message.Fetch_reply { req_id; ok; data }))
  in
  match Hashtbl.find_opt rt.exports export_id with
  | None -> reply false Bytes.empty
  | Some e when e.key <> key || offset < 0 || len < 0 || offset + len > e.len
    ->
    reply false Bytes.empty
  | Some e ->
    (match Hashtbl.find_opt rt.procs (Pid.to_int e.owner) with
    | None -> reply false Bytes.empty
    | Some proc ->
      let src_vaddr = e.base_vaddr + offset in
      let vpn, npages = pages_of ~vaddr:src_vaddr ~len in
      let cost = translate_pages t rt ~pid:e.owner ~vpn ~npages in
      ignore
        (Engine.schedule t.engine
           ~delay:(Time.of_us (cost.host_us +. cost.ni_us)) (fun () ->
             Dma.host_to_nic (Nic.dma rt.nic)
               ~src:(fun () -> Memory_image.read proc.memory ~vaddr:src_vaddr ~len)
               ~len
               ~on_done:(fun data -> reply true data))))

let deliver_fetch_reply t rt req_id ok data =
  match Hashtbl.find_opt rt.waiters req_id with
  | None -> ()
  | Some w ->
    Hashtbl.remove rt.waiters req_id;
    if not ok then begin
      t.garbage_stores <- t.garbage_stores + 1;
      match w.w_on_complete with Some f -> f () | None -> ()
    end
    else begin
      match Hashtbl.find_opt rt.procs (Pid.to_int w.w_pid) with
      | None -> ()
      | Some proc ->
        Dma.nic_to_host (Nic.dma rt.nic) ~data ~on_done:(fun data ->
            Memory_image.write proc.memory ~vaddr:w.w_lvaddr data;
            t.fetches_completed <- t.fetches_completed + 1;
            match w.w_on_complete with Some f -> f () | None -> ())
    end

(* Firmware receive path for one node: parse and dispatch. *)
let on_message t ~src ~dst payload =
  let rt = t.node_rts.(dst) in
  match Message.of_bytes payload with
  | Error _ -> t.garbage_stores <- t.garbage_stores + 1
  | Ok (Message.Store { export_id; key; offset; data }) ->
    deliver_store t rt export_id key offset data
  | Ok (Message.Fetch_request { req_id; export_id; key; offset; len }) ->
    deliver_fetch_request t rt ~src req_id export_id key offset len
  | Ok (Message.Fetch_reply { req_id; ok; data }) ->
    deliver_fetch_reply t rt req_id ok data

(* Firmware command path: a command popped from a process ring. *)
let on_command t rt ~pid cmd =
  match Hashtbl.find_opt rt.procs (Pid.to_int pid) with
  | None -> ()
  | Some proc ->
    (match cmd with
    | Command_queue.Noop -> ()
    | Command_queue.Send _ | Command_queue.Fetch _ | Command_queue.Redirect _ ->
    match (cmd, Queue.take_opt proc.meta) with
    | Command_queue.Noop, _ -> assert false
    | _, None ->
      (* A command with no matching metadata (a rogue ring sharing the
         pid, or a wrapped ring slot): drop it and keep the firmware
         alive — the command never acquires a target, so nothing can
         reach a stale buffer. *)
      t.ring_desyncs <- t.ring_desyncs + 1;
      Log.warn (fun m ->
          m "node%d: command ring and metadata out of sync, command dropped"
            rt.id)
    | ( Command_queue.Send { lvaddr; nbytes; dest_node; dest_import = _ },
        Some (Send_meta m) ) ->
      (* Charge NI translation cost for the source pages, then DMA the
         payload up and ship it page chunk by page chunk. *)
      ignore
        (Engine.schedule t.engine ~delay:(Time.of_us m.ni_cost_us) (fun () ->
             Dma.host_to_nic (Nic.dma rt.nic)
               ~src:(fun () ->
                 Memory_image.read proc.memory ~vaddr:lvaddr ~len:nbytes)
               ~len:nbytes
               ~on_done:(fun data ->
                 (* Break at page boundaries (footnote 1). *)
                 let ch = channel_to t rt dest_node in
                 let total = Bytes.length data in
                 let rec ship off =
                   if off < total then begin
                     let addr = lvaddr + off in
                     let chunk_len =
                       min (page_size - (addr mod page_size)) (total - off)
                     in
                     let last = off + chunk_len >= total in
                     let on_delivered =
                       if last then
                         Some
                           (fun () ->
                             t.sends_completed <- t.sends_completed + 1;
                             Stats.Summary.observe t.send_latency
                               (Time.to_us
                                  (Time.sub (Engine.now t.engine) m.posted_at));
                             match m.on_complete with
                             | Some f -> f ()
                             | None -> ())
                       else None
                     in
                     let msg =
                       Message.store_bytes ~export_id:m.target.export_id
                         ~key:m.target.key ~offset:(m.offset + off) data
                         ~pos:off ~len:chunk_len
                     in
                     Channel.send ch ?on_delivered msg;
                     ship (off + chunk_len)
                   end
                 in
                 ship 0)))
    | ( Command_queue.Fetch { lvaddr = _; nbytes = _; src_node; src_import = _ },
        Some (Fetch_meta m) ) ->
      let req_id = rt.next_req in
      rt.next_req <- req_id + 1;
      Hashtbl.replace rt.waiters req_id
        {
          w_lvaddr = m.lvaddr;
          w_pid = Command_queue.pid proc.ring;
          w_on_complete = m.on_complete;
        };
      let ch = channel_to t rt src_node in
      Channel.send ch
        (Message.to_bytes
           (Message.Fetch_request
              {
                req_id;
                export_id = m.target.export_id;
                key = m.target.key;
                offset = m.offset;
                len = m.len;
              }))
    | Command_queue.Redirect _, Some _ ->
      (* Redirection is applied host-side in Process.redirect; the ring
         command exists for firmware visibility only. *)
      ()
    | (Command_queue.Send _ | Command_queue.Fetch _), Some _ ->
      (* The metadata at the queue head belongs to a different command
         kind. Both halves are discarded: completing either with the
         other's target could deliver into the wrong export. *)
      t.ring_desyncs <- t.ring_desyncs + 1;
      Log.warn (fun m ->
          m "node%d: command/metadata kind mismatch, both dropped" rt.id))

let create ?(config = default_config) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:config.seed in
  let fabric =
    match config.topology with
    | Star nodes ->
      Fabric.create ~faults:config.faults ~rng:(Rng.split rng) ~nodes engine
    | Chain { switches; hosts_per_switch } ->
      Fabric.create_chain ~faults:config.faults ~rng:(Rng.split rng)
        ~switches ~hosts_per_switch engine
  in
  let demux = Demux.create fabric in
  let (Utlb.Sim_driver.Packed ((module E), engine_config)) =
    config.translation
  in
  let node_rts =
    Array.init (Fabric.nodes fabric) (fun id ->
        let nic = Nic.create engine in
        let host = Utlb_mem.Host_memory.create () in
        {
          id;
          nic;
          translator =
            Translator
              ( (module E),
                E.create ~host ~seed:(Rng.next_int64 rng) engine_config );
          exports = Hashtbl.create 32;
          waiters = Hashtbl.create 32;
          next_export = 1;
          next_req = 1;
          channels_to = Array.make (Fabric.nodes fabric) None;
          procs = Hashtbl.create 8;
        })
  in
  let t =
    {
      config;
      engine;
      rng;
      fabric;
      demux;
      node_rts;
      model = Cost_model.default;
      semantics = E.stepper engine_config;
      prefetch = (E.cost_paths engine_config ~npages:1).Stepper.Cost.prefetch;
      next_pid = 0;
      sends_completed = 0;
      fetches_completed = 0;
      stores_received = 0;
      garbage_stores = 0;
      ring_desyncs = 0;
      send_latency = Stats.Summary.create "send-latency-us";
      on_msg = None;
    }
  in
  t.on_msg <- Some (fun ~src ~dst payload -> on_message t ~src ~dst payload);
  Array.iter
    (fun rt -> Mcp.set_handler (Nic.mcp rt.nic) (fun ~pid cmd -> on_command t rt ~pid cmd))
    node_rts;
  t

let run ?until_us t =
  match until_us with
  | None -> Engine.run t.engine
  | Some us -> Engine.run ~until:(Time.of_us us) t.engine

let spawn t ~node =
  if node < 0 || node >= node_count t then
    invalid_arg "Cluster.spawn: bad node";
  let rt = t.node_rts.(node) in
  let pid = Pid.of_int t.next_pid in
  (match rt.translator with
  | Translator ((module E), engine) -> E.add_process engine pid);
  t.next_pid <- t.next_pid + 1;
  let ring =
    Nic.new_command_queue rt.nic ~pid ~slots:t.config.command_slots
  in
  let proc =
    { cluster = t; rt; pid; memory = Memory_image.create (); ring;
      meta = Queue.create (); notifications = Queue.create (); alive = true }
  in
  Hashtbl.replace rt.procs (Pid.to_int pid) proc;
  proc

let kill_process (_ : t) proc =
  if not proc.alive then 0
  else begin
    proc.alive <- false;
    let rt = proc.rt in
    (* Revoke this process's exports: later stores land on the garbage
       page. *)
    let revoked =
      Hashtbl.fold
        (fun id e acc -> if Pid.equal e.owner proc.pid then id :: acc else acc)
        rt.exports []
    in
    List.iter (Hashtbl.remove rt.exports) revoked;
    Hashtbl.remove rt.procs (Pid.to_int proc.pid);
    let released =
      match rt.translator with
      | Translator ((module E), engine) -> E.remove_process engine proc.pid
    in
    Log.debug (fun m ->
        m "node%d: %a exited, %d exports revoked, %d pages released" rt.id
          Pid.pp proc.pid (List.length revoked) released);
    released
  end

module Process = struct
  type import = import_target

  let pid p = p.pid

  let node p = p.rt.id

  let write_memory p ~vaddr data = Memory_image.write p.memory ~vaddr data

  let read_memory p ~vaddr ~len = Memory_image.read p.memory ~vaddr ~len

  let export p ~vaddr ~len =
    if len <= 0 then invalid_arg "Process.export: len must be positive";
    let t = p.cluster in
    let rt = p.rt in
    let id = rt.next_export in
    rt.next_export <- id + 1;
    let key = Rng.int t.rng 0x3FFFFFFF in
    (* Exported receive buffers are pinned with translations installed
       before any data can arrive. *)
    let vpn, npages = pages_of ~vaddr ~len in
    ignore (translate_pages t rt ~pid:p.pid ~vpn ~npages);
    Hashtbl.replace rt.exports id
      { owner = p.pid; base_vaddr = vaddr; len; key; redirect_vaddr = None };
    (id, key)

  let import p ~node ~export_id ~key =
    if node < 0 || node >= node_count p.cluster then
      invalid_arg "Process.import: bad node";
    { dest_node = node; export_id; key }

  let post p cmd meta_entry =
    if not (Command_queue.post p.ring cmd) then
      invalid_arg "Process: command ring full";
    Queue.push meta_entry p.meta;
    Mcp.kick (Nic.mcp p.rt.nic)

  (* The command ring is mapped into user space, so the firmware cannot
     assume its contents are well-formed: a buggy or malicious user
     library can scribble a slot without going through the driver. This
     hook models exactly that — a raw command with no host-side metadata
     and no doorbell — so tests can exercise the desync recovery paths
     in [on_command]. *)
  let post_rogue p cmd = Command_queue.post p.ring cmd

  let send p ?on_complete (target : import) ~lvaddr ~offset ~len =
    if len <= 0 then invalid_arg "Process.send: len must be positive";
    let t = p.cluster in
    let vpn, npages = pages_of ~vaddr:lvaddr ~len in
    (* User-level lookup (UTLB: bit-vector check + demand pinning;
       interrupt baseline: nothing on the host, misses cost later on
       the NI). *)
    let cost = translate_pages t p.rt ~pid:p.pid ~vpn ~npages in
    ignore
      (Engine.schedule t.engine ~delay:(Time.of_us cost.host_us) (fun () ->
           post p
             (Command_queue.Send
                {
                  lvaddr;
                  nbytes = len;
                  dest_node = target.dest_node;
                  dest_import = target.export_id;
                })
             (Send_meta
                {
                  target;
                  offset;
                  on_complete;
                  posted_at = Engine.now t.engine;
                  ni_cost_us = cost.ni_us;
                })))

  let fetch p ?on_complete (target : import) ~offset ~len ~lvaddr =
    if len <= 0 then invalid_arg "Process.fetch: len must be positive";
    let t = p.cluster in
    let vpn, npages = pages_of ~vaddr:lvaddr ~len in
    (* Pin the local destination buffer before the data can arrive. *)
    let cost = translate_pages t p.rt ~pid:p.pid ~vpn ~npages in
    ignore
      (Engine.schedule t.engine
         ~delay:(Time.of_us (cost.host_us +. cost.ni_us)) (fun () ->
           post p
             (Command_queue.Fetch
                {
                  lvaddr;
                  nbytes = len;
                  src_node = target.dest_node;
                  src_import = target.export_id;
                })
             (Fetch_meta { target; offset; len; lvaddr; on_complete })))

  let redirect p ~export_id ~new_vaddr =
    match Hashtbl.find_opt p.rt.exports export_id with
    | Some e when Pid.equal e.owner p.pid ->
      e.redirect_vaddr <- Some new_vaddr
    | Some _ | None ->
      invalid_arg "Process.redirect: export not owned by this process"

  let clear_redirect p ~export_id =
    match Hashtbl.find_opt p.rt.exports export_id with
    | Some e when Pid.equal e.owner p.pid -> e.redirect_vaddr <- None
    | Some _ | None ->
      invalid_arg "Process.clear_redirect: export not owned by this process"

  type nonrec notification = notification = {
    n_export_id : int;
    n_offset : int;
    n_len : int;
    n_time_us : float;
  }

  let poll_notification p = Queue.take_opt p.notifications

  let pending_notifications p = Queue.length p.notifications
end
