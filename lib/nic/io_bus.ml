module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine
module Probe = Utlb_obs.Probe
module Ev = Utlb_obs.Event

(* Paper values: 1.0 us DMA setup, 127 MB/s sustained PCI bandwidth. *)
let dma_setup_us = 1.0

let bandwidth_mb_per_s = 127.0

type t = {
  engine : Engine.t;
  mutable busy_until : Time.t;
  mutable transactions : int;
  mutable probe : Probe.t;
  mutable probe_pid : int;
}

let create engine =
  {
    engine;
    busy_until = Time.zero;
    transactions = 0;
    probe = Probe.null;
    probe_pid = 0;
  }

let engine t = t.engine

let set_obs t ?(pid = 0) scope =
  t.probe <- Probe.of_scope_opt scope;
  t.probe_pid <- pid

let data_cost ~bytes =
  if bytes < 0 then invalid_arg "Io_bus.data_cost: negative length";
  let transfer_us = float_of_int bytes /. (bandwidth_mb_per_s *. 1e6) *. 1e6 in
  Time.of_us (dma_setup_us +. transfer_us)

let submit t ~cost k =
  let now = Engine.now t.engine in
  let start = Time.max now t.busy_until in
  let finish = Time.add start cost in
  t.busy_until <- finish;
  t.transactions <- t.transactions + 1;
  if t.probe.Probe.active then begin
    t.probe.Probe.emit_at Ev.Bus_start ~at_us:(Time.to_us start)
      ~pid:t.probe_pid ~vpn:Probe.no_vpn ~count:Probe.no_count;
    t.probe.Probe.emit_at Ev.Bus_end ~at_us:(Time.to_us finish)
      ~pid:t.probe_pid ~vpn:Probe.no_vpn ~count:Probe.no_count
  end;
  ignore (Engine.schedule_at t.engine ~at:finish k);
  (* The submit is this component's dispatch boundary. *)
  t.probe.Probe.flush ()

let busy_until t = t.busy_until

let transactions t = t.transactions
