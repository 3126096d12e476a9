(* Tests for the NIC device model: SRAM, I/O bus, DMA, command rings,
   and the MCP firmware loop. *)

open Utlb_nic
module Time = Utlb_sim.Time
module Engine = Utlb_sim.Engine

let test_sram_regions () =
  let sram = Sram.create ~bytes:1024 () in
  let a = Sram.alloc sram ~name:"a" ~length:256 in
  let b = Sram.alloc sram ~name:"b" ~length:256 in
  Alcotest.(check int) "allocated" 512 (Sram.allocated sram);
  Alcotest.(check int) "available" 512 (Sram.available sram);
  Alcotest.(check bool) "disjoint" true (b.Sram.offset >= a.Sram.offset + 256);
  Alcotest.(check bool) "lookup" true (Sram.region sram "a" <> None);
  Alcotest.(check int) "two regions" 2 (List.length (Sram.regions sram))

let test_sram_exhaustion () =
  let sram = Sram.create ~bytes:128 () in
  ignore (Sram.alloc sram ~name:"x" ~length:100);
  (try
     ignore (Sram.alloc sram ~name:"y" ~length:100);
     Alcotest.fail "expected exhaustion"
   with Invalid_argument _ -> ());
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Sram.alloc: duplicate region name") (fun () ->
      ignore (Sram.alloc sram ~name:"x" ~length:8))

let test_sram_words () =
  let sram = Sram.create ~bytes:256 () in
  let r = Sram.alloc sram ~name:"w" ~length:64 in
  Sram.write_word sram r 0 42L;
  Sram.write_word sram r 7 (-1L);
  Alcotest.(check int64) "word 0" 42L (Sram.read_word sram r 0);
  Alcotest.(check int64) "word 7" (-1L) (Sram.read_word sram r 7);
  Alcotest.check_raises "oob" (Invalid_argument "Sram: word index out of region bounds")
    (fun () -> ignore (Sram.read_word sram r 8))

let test_sram_bytes () =
  let sram = Sram.create ~bytes:256 () in
  let r = Sram.alloc sram ~name:"b" ~length:32 in
  Sram.write_bytes sram r ~off:4 (Bytes.of_string "hello");
  Alcotest.(check string) "roundtrip" "hello"
    (Bytes.to_string (Sram.read_bytes sram r ~off:4 ~len:5))

let test_bus_costs () =
  (* Bulk: setup + bytes/bandwidth. 127 MB/s -> 4096 B = 32.25 us + 1. *)
  let d = Time.to_us (Io_bus.data_cost ~bytes:4096) in
  Alcotest.(check bool) "4KB cost plausible" true (d > 30.0 && d < 36.0)

let test_bus_serialises () =
  let e = Engine.create () in
  let bus = Io_bus.create e in
  let log = ref [] in
  Io_bus.submit bus ~cost:(Time.of_us 10.0) (fun () ->
      log := ("a", Time.to_us (Engine.now e)) :: !log);
  Io_bus.submit bus ~cost:(Time.of_us 5.0) (fun () ->
      log := ("b", Time.to_us (Engine.now e)) :: !log);
  Engine.run e;
  match List.rev !log with
  | [ ("a", ta); ("b", tb) ] ->
    Alcotest.(check (float 1e-6)) "first at 10" 10.0 ta;
    Alcotest.(check (float 1e-6)) "second queued behind" 15.0 tb
  | _ -> Alcotest.fail "wrong completion order"

let test_dma_data_roundtrip () =
  let e = Engine.create () in
  let dma = Dma.create (Io_bus.create e) in
  let payload = Bytes.of_string "payload-bytes" in
  let up = ref Bytes.empty and down = ref Bytes.empty in
  Dma.host_to_nic dma ~src:(fun () -> payload) ~len:(Bytes.length payload)
    ~on_done:(fun b ->
      up := b;
      Dma.nic_to_host dma ~data:b ~on_done:(fun b -> down := b));
  Engine.run e;
  Alcotest.(check bytes) "up" payload !up;
  Alcotest.(check bytes) "down" payload !down;
  Alcotest.(check int) "bytes moved" (2 * Bytes.length payload)
    (Dma.bytes_moved dma)

let test_command_queue_roundtrip () =
  let sram = Sram.create () in
  let q = Command_queue.create sram ~pid:(Utlb_mem.Pid.of_int 3) ~slots:4 in
  let send =
    Command_queue.Send { lvaddr = 0x1234; nbytes = 4096; dest_node = 2; dest_import = 7 }
  in
  let fetch =
    Command_queue.Fetch { lvaddr = 0x9999; nbytes = 100; src_node = 1; src_import = 3 }
  in
  Alcotest.(check bool) "post send" true (Command_queue.post q send);
  Alcotest.(check bool) "post fetch" true (Command_queue.post q fetch);
  Alcotest.(check int) "pending" 2 (Command_queue.pending q);
  (match Command_queue.poll q with
  | Some (Command_queue.Send s) ->
    Alcotest.(check int) "lvaddr survives SRAM" 0x1234 s.lvaddr;
    Alcotest.(check int) "nbytes" 4096 s.nbytes
  | _ -> Alcotest.fail "expected the send first");
  (match Command_queue.poll q with
  | Some (Command_queue.Fetch f) ->
    Alcotest.(check int) "src node" 1 f.src_node
  | _ -> Alcotest.fail "expected the fetch second");
  Alcotest.(check (option reject)) "drained" None
    (Option.map (fun _ -> ()) (Command_queue.poll q))

let test_command_queue_full () =
  let sram = Sram.create () in
  let q = Command_queue.create sram ~pid:(Utlb_mem.Pid.of_int 0) ~slots:2 in
  Alcotest.(check bool) "1" true (Command_queue.post q Command_queue.Noop);
  Alcotest.(check bool) "2" true (Command_queue.post q Command_queue.Noop);
  Alcotest.(check bool) "full" false (Command_queue.post q Command_queue.Noop);
  ignore (Command_queue.poll q);
  Alcotest.(check bool) "room again" true (Command_queue.post q Command_queue.Noop)

let test_mcp_round_robin () =
  let e = Engine.create () in
  let nic = Nic.create e in
  let q0 = Nic.new_command_queue nic ~pid:(Utlb_mem.Pid.of_int 0) ~slots:8 in
  let q1 = Nic.new_command_queue nic ~pid:(Utlb_mem.Pid.of_int 1) ~slots:8 in
  let served = ref [] in
  Mcp.set_handler (Nic.mcp nic) (fun ~pid _cmd ->
      served := Utlb_mem.Pid.to_int pid :: !served);
  for _ = 1 to 3 do
    ignore (Command_queue.post q0 Command_queue.Noop);
    ignore (Command_queue.post q1 Command_queue.Noop)
  done;
  Mcp.kick (Nic.mcp nic);
  Engine.run e;
  Alcotest.(check int) "all served" 6 (List.length !served);
  Alcotest.(check int) "processed counter" 6
    (Mcp.commands_processed (Nic.mcp nic));
  (* Round-robin must interleave, not drain one ring first. *)
  let first_two = List.rev !served |> fun l -> [ List.nth l 0; List.nth l 1 ] in
  Alcotest.(check (list int)) "interleaved" [ 0; 1 ] first_two

let test_mcp_kick_idempotent () =
  let e = Engine.create () in
  let nic = Nic.create e in
  let q = Nic.new_command_queue nic ~pid:(Utlb_mem.Pid.of_int 0) ~slots:4 in
  let count = ref 0 in
  Mcp.set_handler (Nic.mcp nic) (fun ~pid:_ _ -> incr count);
  ignore (Command_queue.post q Command_queue.Noop);
  Mcp.kick (Nic.mcp nic);
  Mcp.kick (Nic.mcp nic);
  Mcp.kick (Nic.mcp nic);
  Engine.run e;
  Alcotest.(check int) "command handled once" 1 !count

let suite =
  [
    Alcotest.test_case "sram regions" `Quick test_sram_regions;
    Alcotest.test_case "sram exhaustion" `Quick test_sram_exhaustion;
    Alcotest.test_case "sram words" `Quick test_sram_words;
    Alcotest.test_case "sram bytes" `Quick test_sram_bytes;
    Alcotest.test_case "bus costs" `Quick test_bus_costs;
    Alcotest.test_case "bus serialises" `Quick test_bus_serialises;
    Alcotest.test_case "dma data roundtrip" `Quick test_dma_data_roundtrip;
    Alcotest.test_case "command queue roundtrip" `Quick test_command_queue_roundtrip;
    Alcotest.test_case "command queue full" `Quick test_command_queue_full;
    Alcotest.test_case "mcp round robin" `Quick test_mcp_round_robin;
    Alcotest.test_case "mcp kick idempotent" `Quick test_mcp_kick_idempotent;
  ]
