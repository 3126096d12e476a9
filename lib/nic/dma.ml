module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine
module Probe = Utlb_obs.Probe
module Ev = Utlb_obs.Event

type t = {
  bus : Io_bus.t;
  mutable bytes_moved : int;
  mutable frame_guard : (frame:int -> unit) option;
  mutable probe : Probe.t;
  mutable probe_pid : int;
}

let create bus =
  {
    bus;
    bytes_moved = 0;
    frame_guard = None;
    probe = Probe.null;
    probe_pid = 0;
  }

let set_frame_guard t guard = t.frame_guard <- guard

let set_obs t ?(pid = 0) scope =
  t.probe <- Probe.of_scope_opt scope;
  t.probe_pid <- pid

(* Emit the begin half of a DMA span at the instant the bus will grant
   the transfer (call just before [Io_bus.submit], which advances
   [busy_until]); then the end half at the completion instant (call
   just after). *)
let observe_begin t ~count =
  if t.probe.Probe.active then begin
    let engine = Io_bus.engine t.bus in
    let start = Time.max (Engine.now engine) (Io_bus.busy_until t.bus) in
    t.probe.Probe.emit_at Ev.Dma_data_start ~at_us:(Time.to_us start)
      ~pid:t.probe_pid ~vpn:Probe.no_vpn ~count
  end

let observe_end t ~count =
  if t.probe.Probe.active then
    t.probe.Probe.emit_at Ev.Dma_data_end
      ~at_us:(Time.to_us (Io_bus.busy_until t.bus))
      ~pid:t.probe_pid ~vpn:Probe.no_vpn ~count

let guard_frames t frames =
  match t.frame_guard with
  | None -> ()
  | Some guard -> Array.iter (fun frame -> guard ~frame) frames

let host_to_nic ?(frames = [||]) t ~src ~len ~on_done =
  if len < 0 then invalid_arg "Dma.host_to_nic: negative length";
  guard_frames t frames;
  let cost = Io_bus.data_cost ~bytes:len in
  t.bytes_moved <- t.bytes_moved + len;
  observe_begin t ~count:len;
  Io_bus.submit t.bus ~cost (fun () ->
      let data = src () in
      if Bytes.length data <> len then
        invalid_arg "Dma.host_to_nic: source length mismatch";
      on_done data);
  observe_end t ~count:len;
  t.probe.Probe.flush ()

let nic_to_host ?(frames = [||]) t ~data ~on_done =
  guard_frames t frames;
  let len = Bytes.length data in
  let cost = Io_bus.data_cost ~bytes:len in
  t.bytes_moved <- t.bytes_moved + len;
  observe_begin t ~count:len;
  Io_bus.submit t.bus ~cost (fun () -> on_done data);
  observe_end t ~count:len;
  t.probe.Probe.flush ()

let bytes_moved t = t.bytes_moved
