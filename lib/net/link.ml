module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine
module Rng = Utlb_sim.Rng

type fault_model = {
  drop_probability : float;
  corrupt_probability : float;
  duplicate_probability : float;
}

let no_faults =
  {
    drop_probability = 0.0;
    corrupt_probability = 0.0;
    duplicate_probability = 0.0;
  }

let fault_model_active f =
  f.drop_probability > 0.0
  || f.corrupt_probability > 0.0
  || f.duplicate_probability > 0.0

type t = {
  engine : Engine.t;
  bandwidth : float; (* bytes per microsecond *)
  latency : Time.t;
  faults : fault_model;
  rng : Rng.t option;
  sink : Packet.t -> unit;
  mutable busy_until : Time.t;
  mutable transmitted : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable corrupted : int;
  mutable duplicated : int;
  mutable bytes_sent : int;
}

let create ?(bandwidth_mb_per_s = 160.0) ?(latency_us = 0.5)
    ?(faults = no_faults) ?rng ~sink engine =
  if fault_model_active faults && rng = None then
    invalid_arg "Link.create: fault model requires an rng";
  {
    engine;
    bandwidth = bandwidth_mb_per_s; (* MB/s = bytes/us *)
    latency = Time.of_us latency_us;
    faults;
    rng;
    sink;
    busy_until = Time.zero;
    transmitted = 0;
    delivered = 0;
    dropped = 0;
    corrupted = 0;
    duplicated = 0;
    bytes_sent = 0;
  }

let roll t p =
  match t.rng with
  | None -> false
  | Some rng -> p > 0.0 && Rng.chance rng p

let transmit t pkt =
  t.transmitted <- t.transmitted + 1;
  t.bytes_sent <- t.bytes_sent + Packet.wire_size pkt;
  let serialisation =
    Time.of_us (float_of_int (Packet.wire_size pkt) /. t.bandwidth)
  in
  let now = Engine.now t.engine in
  let start = Time.max now t.busy_until in
  let sent = Time.add start serialisation in
  t.busy_until <- sent;
  let arrival = Time.add sent t.latency in
  if roll t t.faults.drop_probability then t.dropped <- t.dropped + 1
  else begin
    let pkt =
      if roll t t.faults.corrupt_probability then begin
        t.corrupted <- t.corrupted + 1;
        Packet.corrupt pkt
      end
      else pkt
    in
    ignore
      (Engine.schedule_at t.engine ~at:arrival (fun () ->
           t.delivered <- t.delivered + 1;
           t.sink pkt));
    (* A duplicated packet is re-serialised back-to-back behind the
       original, so the copy arrives one wire time later and receivers
       must tolerate replays (sequence numbers make them idempotent). *)
    if roll t t.faults.duplicate_probability then begin
      t.duplicated <- t.duplicated + 1;
      let resent = Time.add t.busy_until serialisation in
      t.busy_until <- resent;
      let re_arrival = Time.add resent t.latency in
      ignore
        (Engine.schedule_at t.engine ~at:re_arrival (fun () ->
             t.delivered <- t.delivered + 1;
             t.sink pkt))
    end
  end

let transmitted t = t.transmitted

let delivered t = t.delivered

let dropped t = t.dropped

let corrupted t = t.corrupted

let duplicated t = t.duplicated

let bytes_sent t = t.bytes_sent
