module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine

type handler = pid:Utlb_mem.Pid.t -> Command_queue.command -> unit

type t = {
  engine : Engine.t;
  poll_cost : Time.t;
  mutable rings : Command_queue.t array;
  mutable rotor : int; (* round-robin position *)
  mutable handler : handler option;
  mutable scheduled : bool;
  mutable commands : int;
}

(* Firmware occupancy charged per command dispatch: the paper's
   command-processing overhead scale. *)
let poll_us = 0.3

let create engine =
  {
    engine;
    poll_cost = Time.of_us poll_us;
    rings = [||];
    rotor = 0;
    handler = None;
    scheduled = false;
    commands = 0;
  }

let attach t ring =
  let pid = Command_queue.pid ring in
  Array.iter
    (fun r ->
      if Utlb_mem.Pid.equal (Command_queue.pid r) pid then
        invalid_arg "Mcp.attach: ring already attached for pid")
    t.rings;
  t.rings <- Array.append t.rings [| ring |]

let set_handler t h = t.handler <- Some h

(* One polling pass: scan rings starting at the rotor; dispatch the
   first pending command, then reschedule if any work may remain. *)
let rec pass t () =
  t.scheduled <- false;
  let n = Array.length t.rings in
  if n > 0 then begin
    let found = ref None in
    let i = ref 0 in
    while !found = None && !i < n do
      let ring = t.rings.((t.rotor + !i) mod n) in
      (match Command_queue.poll ring with
      | Some cmd -> found := Some (Command_queue.pid ring, cmd)
      | None -> ());
      incr i
    done;
    match !found with
    | None -> ()
    | Some (pid, cmd) ->
      t.rotor <- (t.rotor + !i) mod n;
      t.commands <- t.commands + 1;
      (* Charge firmware occupancy, then run the handler and continue
         polling in the same simulated activation. *)
      t.scheduled <- true;
      ignore
        (Engine.schedule t.engine ~delay:t.poll_cost (fun () ->
             t.scheduled <- false;
             (match t.handler with
             | Some h -> h ~pid cmd
             | None -> failwith "Mcp: command arrived with no handler");
             kick t))
  end

and kick t =
  if not t.scheduled then begin
    t.scheduled <- true;
    ignore (Engine.schedule t.engine ~delay:Time.zero (pass t))
  end

let commands_processed t = t.commands

let busy t = t.scheduled
