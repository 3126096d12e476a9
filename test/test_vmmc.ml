(* End-to-end VMMC integration tests over the full simulated stack:
   UTLB + NIC + fabric + reliable channels. *)

open Utlb_vmmc
module Link = Utlb_net.Link

let pattern len salt = Bytes.init len (fun i -> Char.chr ((i * 7 + salt) land 0xff))

let test_message_roundtrip () =
  let msgs =
    [
      Message.Store
        { export_id = 7; key = 123; offset = 4096; data = Bytes.of_string "abc" };
      Message.Fetch_request
        { req_id = 1; export_id = 2; key = 3; offset = 4; len = 5 };
      Message.Fetch_reply { req_id = 9; ok = true; data = Bytes.of_string "xyz" };
      Message.Fetch_reply { req_id = 10; ok = false; data = Bytes.empty };
    ]
  in
  List.iter
    (fun m ->
      match Message.of_bytes (Message.to_bytes m) with
      | Ok m' -> Alcotest.(check bool) (Message.kind_name m) true (m = m')
      | Error e -> Alcotest.fail e)
    msgs

let test_message_rejects_garbage () =
  (match Message.of_bytes Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty accepted");
  match Message.of_bytes (Bytes.of_string "\255 bogus") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad tag accepted"

let test_memory_image () =
  let m = Memory_image.create () in
  Alcotest.(check bytes) "zero fill" (Bytes.make 8 '\000')
    (Memory_image.read m ~vaddr:0 ~len:8);
  (* Write across a page boundary. *)
  let data = pattern 10000 3 in
  Memory_image.write m ~vaddr:4000 data;
  Alcotest.(check bytes) "cross-page roundtrip" data
    (Memory_image.read m ~vaddr:4000 ~len:10000);
  Alcotest.(check int) "pages touched" 4 (Memory_image.pages_touched m)

(* A registered engine, as every NI of a cluster runs it. *)
let engine name params =
  match Utlb.Sim_driver.Registry.resolve ~name ~params with
  | Ok packed -> packed
  | Error msg -> Alcotest.fail msg

let with_cluster ?config f =
  let c = Cluster.create ?config () in
  let a = Cluster.spawn c ~node:0 in
  let b = Cluster.spawn c ~node:1 in
  f c a b

let test_remote_store () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:65536 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 20000 1 in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      let acked = ref false in
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:4096 ~len:20000
        ~on_complete:(fun () -> acked := true);
      Cluster.run c;
      Alcotest.(check bool) "acked" true !acked;
      Alcotest.(check bytes) "delivered intact" data
        (Cluster.Process.read_memory b ~vaddr:(0x10000 + 4096) ~len:20000);
      Alcotest.(check int) "no garbage" 0 (Cluster.garbage_stores c);
      Alcotest.(check bool) "time advanced" true (Cluster.now_us c > 0.0))

let test_remote_fetch () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x20000 ~len:16384 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 9000 2 in
      Cluster.Process.write_memory b ~vaddr:(0x20000 + 100) data;
      let done_ = ref false in
      Cluster.Process.fetch a h ~offset:100 ~len:9000 ~lvaddr:0x8000
        ~on_complete:(fun () -> done_ := true);
      Cluster.run c;
      Alcotest.(check bool) "completed" true !done_;
      Alcotest.(check bytes) "fetched intact" data
        (Cluster.Process.read_memory a ~vaddr:0x8000 ~len:9000);
      Alcotest.(check int) "counted" 1 (Cluster.fetches_completed c))

let test_wrong_key_goes_to_garbage () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:4096 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key:(key + 1) in
      Cluster.Process.write_memory a ~vaddr:0x5000 (pattern 100 4);
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:100;
      Cluster.run c;
      Alcotest.(check int) "garbage store" 1 (Cluster.garbage_stores c);
      Alcotest.(check bytes) "receiver memory untouched" (Bytes.make 100 '\000')
        (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:100))

let test_unknown_export_goes_to_garbage () =
  with_cluster (fun c a _b ->
      let h = Cluster.Process.import a ~node:1 ~export_id:999 ~key:1 in
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:64;
      Cluster.run c;
      Alcotest.(check int) "garbage" 1 (Cluster.garbage_stores c))

let test_out_of_bounds_store_rejected () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:4096 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:4000 ~len:200;
      Cluster.run c;
      Alcotest.(check int) "overflowing store dropped" 1
        (Cluster.garbage_stores c))

let test_redirection () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:8192 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      Cluster.Process.write_memory a ~vaddr:0x5000 (Bytes.of_string "first");
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:5;
      Cluster.run c;
      Cluster.Process.redirect b ~export_id ~new_vaddr:0x90000;
      Cluster.Process.write_memory a ~vaddr:0x6000 (Bytes.of_string "second");
      Cluster.Process.send a h ~lvaddr:0x6000 ~offset:0 ~len:6;
      Cluster.run c;
      Cluster.Process.clear_redirect b ~export_id;
      Cluster.Process.write_memory a ~vaddr:0x7000 (Bytes.of_string "third");
      Cluster.Process.send a h ~lvaddr:0x7000 ~offset:0 ~len:5;
      Cluster.run c;
      Alcotest.(check string) "redirected delivery" "second"
        (Bytes.to_string (Cluster.Process.read_memory b ~vaddr:0x90000 ~len:6));
      (* Default location got the first and third. *)
      Alcotest.(check string) "default after clear" "third"
        (Bytes.to_string (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:5)))

let test_redirect_requires_ownership () =
  with_cluster (fun _c a b ->
      let export_id, _ = Cluster.Process.export b ~vaddr:0x10000 ~len:4096 in
      (* Exports live per node; process a on node 0 does not own node 1's
         export table entry. *)
      Alcotest.check_raises "not owner"
        (Invalid_argument "Process.redirect: export not owned by this process")
        (fun () -> Cluster.Process.redirect a ~export_id ~new_vaddr:0x1000))

let test_lossy_fabric_still_delivers () =
  let config =
    {
      Cluster.default_config with
      faults = { Link.no_faults with drop_probability = 0.1; corrupt_probability = 0.03 };
    }
  in
  with_cluster ~config (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:131072 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let n = 16 in
      let acked = ref 0 in
      for i = 0 to n - 1 do
        let data = pattern 5000 i in
        Cluster.Process.write_memory a ~vaddr:(0x100000 + (i * 5000)) data;
        Cluster.Process.send a h
          ~lvaddr:(0x100000 + (i * 5000))
          ~offset:(i * 5000) ~len:5000
          ~on_complete:(fun () -> incr acked)
      done;
      Cluster.run c;
      Alcotest.(check int) "all acked" n !acked;
      for i = 0 to n - 1 do
        Alcotest.(check bytes)
          (Printf.sprintf "block %d intact" i)
          (pattern 5000 i)
          (Cluster.Process.read_memory b ~vaddr:(0x10000 + (i * 5000)) ~len:5000)
      done;
      Alcotest.(check bool) "retransmissions happened" true
        (Cluster.retransmissions c > 0))

let test_utlb_active_on_both_sides () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:32768 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      Cluster.Process.write_memory a ~vaddr:0x5000 (pattern 16384 7);
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:16384;
      Cluster.run c;
      let sender = Cluster.utlb_report c ~node:0 in
      let receiver = Cluster.utlb_report c ~node:1 in
      Alcotest.(check bool) "sender pinned pages" true
        (sender.Utlb.Report.pages_pinned >= 4);
      Alcotest.(check bool) "receiver pinned its export" true
        (receiver.Utlb.Report.pages_pinned >= 8);
      Alcotest.(check int) "no interrupts anywhere" 0
        (sender.Utlb.Report.interrupts + receiver.Utlb.Report.interrupts))

let test_multi_process_per_node () =
  with_cluster (fun c a _b ->
      let c2 = Cluster.spawn c ~node:1 in
      let c3 = Cluster.spawn c ~node:1 in
      let e2, k2 = Cluster.Process.export c2 ~vaddr:0x10000 ~len:4096 in
      let e3, k3 = Cluster.Process.export c3 ~vaddr:0x10000 ~len:4096 in
      let h2 = Cluster.Process.import a ~node:1 ~export_id:e2 ~key:k2 in
      let h3 = Cluster.Process.import a ~node:1 ~export_id:e3 ~key:k3 in
      Cluster.Process.write_memory a ~vaddr:0x5000 (Bytes.of_string "for-c2");
      Cluster.Process.write_memory a ~vaddr:0x6000 (Bytes.of_string "for-c3");
      Cluster.Process.send a h2 ~lvaddr:0x5000 ~offset:0 ~len:6;
      Cluster.Process.send a h3 ~lvaddr:0x6000 ~offset:0 ~len:6;
      Cluster.run c;
      (* Same virtual address, different processes: isolation holds. *)
      Alcotest.(check string) "c2 got its message" "for-c2"
        (Bytes.to_string (Cluster.Process.read_memory c2 ~vaddr:0x10000 ~len:6));
      Alcotest.(check string) "c3 got its message" "for-c3"
        (Bytes.to_string (Cluster.Process.read_memory c3 ~vaddr:0x10000 ~len:6)))

let prop_store_roundtrip =
  QCheck.Test.make ~name:"random-size stores deliver intact" ~count:12
    QCheck.(pair (int_range 1 30000) (int_bound 200))
    (fun (len, salt) ->
      let c = Cluster.create () in
      let a = Cluster.spawn c ~node:0 in
      let b = Cluster.spawn c ~node:1 in
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:32768 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let len = min len 32768 in
      let data = pattern len salt in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len;
      Cluster.run c;
      Bytes.equal data (Cluster.Process.read_memory b ~vaddr:0x10000 ~len))


let test_interrupt_based_cluster () =
  (* The same end-to-end transfer works when every NI runs the
     interrupt-based baseline — but interrupts fire and unpins happen. *)
  let config =
    {
      Cluster.default_config with
      translation = engine "intr" [ ("entries", "8") ];
    }
  in
  with_cluster ~config (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:65536 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 30000 9 in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:30000;
      Cluster.run c;
      Alcotest.(check bytes) "delivered intact" data
        (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:30000);
      let r0 = Cluster.utlb_report c ~node:0 in
      let r1 = Cluster.utlb_report c ~node:1 in
      Alcotest.(check bool) "interrupts fired" true
        (r0.Utlb.Report.interrupts + r1.Utlb.Report.interrupts > 0);
      (* An 8-entry cache cannot hold a 16-page window: evictions unpin. *)
      Alcotest.(check bool) "evictions unpinned pages" true
        (r1.Utlb.Report.pages_unpinned > 0))

let test_intr_cluster_slower_than_utlb () =
  (* Same transfer pattern under both translation mechanisms with a tiny
     cache: the interrupt-based cluster takes longer in simulated time. *)
  let run translation =
    let config = { Cluster.default_config with translation } in
    let c = Cluster.create ~config () in
    let a = Cluster.spawn c ~node:0 in
    let b = Cluster.spawn c ~node:1 in
    let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:262144 in
    let h = Cluster.Process.import a ~node:1 ~export_id ~key in
    Cluster.Process.write_memory a ~vaddr:0x80000 (pattern 4096 1);
    (* Rotate over 32 source pages so an 8-entry cache keeps missing. *)
    for i = 0 to 63 do
      let page = i mod 32 in
      Cluster.Process.send a h
        ~lvaddr:(0x80000 + (page * 4096))
        ~offset:(page * 4096) ~len:4096;
      Cluster.run c
    done;
    Cluster.now_us c
  in
  let utlb_time = run (engine "utlb" [ ("entries", "8") ]) in
  let intr_time = run (engine "intr" [ ("entries", "8") ]) in
  Alcotest.(check bool) "interrupt-based is slower" true
    (intr_time > utlb_time)



let test_notifications () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:16384 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      Alcotest.(check int) "none yet" 0 (Cluster.Process.pending_notifications b);
      Cluster.Process.write_memory a ~vaddr:0x5000 (pattern 5000 2);
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:256 ~len:5000;
      Cluster.run c;
      (* One store = two page chunks = two notifications, in order. *)
      Alcotest.(check int) "two chunk notifications" 2
        (Cluster.Process.pending_notifications b);
      (match Cluster.Process.poll_notification b with
      | Some n ->
        Alcotest.(check int) "export" export_id n.Cluster.Process.n_export_id;
        Alcotest.(check int) "offset" 256 n.Cluster.Process.n_offset;
        Alcotest.(check bool) "timestamped" true
          (n.Cluster.Process.n_time_us > 0.0)
      | None -> Alcotest.fail "missing notification");
      (match Cluster.Process.poll_notification b with
      | Some n ->
        (* Chunks split at source page boundaries: the first chunk is a
           full source page. *)
        Alcotest.(check int) "second chunk continues" (256 + 4096)
          n.Cluster.Process.n_offset
      | None -> Alcotest.fail "missing second notification");
      Alcotest.(check bool) "drained" true
        (Cluster.Process.poll_notification b = None))

let test_kill_process () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:16384 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      Cluster.Process.write_memory a ~vaddr:0x5000 (pattern 100 1);
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:100;
      Cluster.run c;
      Alcotest.(check int) "delivered before kill" 0 (Cluster.garbage_stores c);
      (* Kill the receiver: its 4 exported pages must be released. *)
      let released = Cluster.kill_process c b in
      Alcotest.(check int) "pages released" 4 released;
      Alcotest.(check int) "idempotent" 0 (Cluster.kill_process c b);
      (* Stores to the dead process's export fall onto the garbage page. *)
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:100;
      Cluster.run c;
      Alcotest.(check int) "garbage after kill" 1 (Cluster.garbage_stores c))

let test_per_process_translation_cluster () =
  let config =
    {
      Cluster.default_config with
      translation =
        engine "per-process" [ ("budget", "64"); ("processes", "2") ];
    }
  in
  with_cluster ~config (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:16384 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 12000 5 in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:12000;
      Cluster.run c;
      Alcotest.(check bytes) "delivered intact" data
        (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:12000);
      (* Pinned: the sender's one 3-page lookup; the receiver's export
         and its three page chunks, each a direct table hit. *)
      Alcotest.(check (float 0.)) "simulated time" 282.388 (Cluster.now_us c);
      let counters node =
        let r = Cluster.utlb_report c ~node in
        Utlb.Report.
          [
            r.lookups; r.check_misses; r.ni_page_accesses; r.ni_page_misses;
            r.pin_calls; r.pages_pinned; r.unpin_calls; r.pages_unpinned;
            r.entries_fetched; r.interrupts;
          ]
      in
      Alcotest.(check (list int)) "node 0" [ 1; 1; 3; 0; 3; 3; 0; 0; 0; 0 ]
        (counters 0);
      Alcotest.(check (list int)) "node 1" [ 4; 1; 7; 0; 4; 4; 0; 0; 0; 0 ]
        (counters 1);
      Alcotest.(check (list int)) "idle node 2" (List.init 10 (fun _ -> 0))
        (counters 2))

(* A per-process node frees a killed process's table and pins, so
   spawn-export-kill cycles never run out of its two tables. A third
   live process finds none and is refused at spawn. *)
let test_per_process_kill_releases () =
  let config =
    {
      Cluster.default_config with
      translation =
        engine "per-process" [ ("budget", "64"); ("processes", "2") ];
    }
  in
  let c = Cluster.create ~config () in
  for round = 1 to 3 do
    let p = Cluster.spawn c ~node:1 in
    ignore (Cluster.Process.export p ~vaddr:0x10000 ~len:16384);
    Alcotest.(check int)
      (Printf.sprintf "kill %d releases the export's pages" round)
      4 (Cluster.kill_process c p)
  done;
  ignore (Cluster.spawn c ~node:1);
  ignore (Cluster.spawn c ~node:1);
  Alcotest.check_raises "no table for a third live process"
    (Invalid_argument "Pp_engine: more processes than allocated tables")
    (fun () -> ignore (Cluster.spawn c ~node:1))

(* Every registered engine runs the VMMC stack: a store and a fetch
   arrive byte for byte, and a process's exit releases exactly the
   pages its node's engine pinned for it. *)
let test_every_engine () =
  List.iter
    (fun name ->
      let config =
        { Cluster.default_config with translation = engine name [] }
      in
      with_cluster ~config (fun c a b ->
          let export_id, key =
            Cluster.Process.export b ~vaddr:0x10000 ~len:65536
          in
          let h = Cluster.Process.import a ~node:1 ~export_id ~key in
          let data = pattern 40000 (String.length name) in
          Cluster.Process.write_memory a ~vaddr:0x5000 data;
          Cluster.Process.send a h ~lvaddr:0x5000 ~offset:1000 ~len:40000;
          Cluster.run c;
          Cluster.Process.fetch a h ~offset:1000 ~len:40000 ~lvaddr:0x40000;
          Cluster.run c;
          let export = Bytes.make 65536 '\000' in
          Bytes.blit data 0 export 1000 40000;
          Alcotest.(check bytes) (name ^ ": every byte of the export") export
            (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:65536);
          Alcotest.(check bytes) (name ^ ": fetched back") data
            (Cluster.Process.read_memory a ~vaddr:0x40000 ~len:40000);
          List.iteri
            (fun node p ->
              let r = Cluster.utlb_report c ~node in
              Alcotest.(check int)
                (Printf.sprintf "%s: node %d exit releases its pins" name node)
                (r.Utlb.Report.pages_pinned - r.Utlb.Report.pages_unpinned)
                (Cluster.kill_process c p))
            [ a; b ]))
    [ "utlb"; "victima"; "utopia"; "intr"; "per-process" ]

(* The command ring is mapped into user space, so the firmware cannot
   trust its contents: a rogue write lands a command with no host-side
   metadata behind it. The firmware must drop it, count the desync, and
   keep serving well-formed traffic. *)
let test_ring_desync_missing_meta () =
  with_cluster (fun c a b ->
      Alcotest.(check bool) "rogue accepted" true
        (Cluster.Process.post_rogue a
           (Utlb_nic.Command_queue.Fetch
              { lvaddr = 0x9000; nbytes = 64; src_node = 1; src_import = 0 }));
      Utlb_nic.Mcp.kick (Utlb_nic.Nic.mcp (Cluster.nic c ~node:0));
      Cluster.run c;
      Alcotest.(check int) "desync counted" 1 (Cluster.ring_desyncs c);
      (* The firmware survived: a real transfer still completes. *)
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:8192 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 512 11 in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:512;
      Cluster.run c;
      Alcotest.(check bytes) "later send delivered" data
        (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:512);
      Alcotest.(check int) "no further desyncs" 1 (Cluster.ring_desyncs c))

(* A rogue slot written before the driver posts a real command sits
   ahead of it in FIFO order (the MCP idles until the real post rings
   the doorbell), so it steals the real command's metadata: the kinds
   mismatch and the firmware must discard both halves rather than
   deliver into the wrong export. The victim command then finds its
   metadata gone — the second desync branch. *)
let test_ring_desync_kind_mismatch () =
  with_cluster (fun c a b ->
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:8192 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 512 13 in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      Alcotest.(check bool) "rogue accepted" true
        (Cluster.Process.post_rogue a
           (Utlb_nic.Command_queue.Fetch
              { lvaddr = 0x9000; nbytes = 64; src_node = 1; src_import = 0 }));
      let acked = ref false in
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:512
        ~on_complete:(fun () -> acked := true);
      Cluster.run c;
      Alcotest.(check int) "mismatch plus orphaned victim" 2
        (Cluster.ring_desyncs c);
      Alcotest.(check bool) "victim send not acked" false !acked;
      Alcotest.(check int) "nothing delivered" 0 (Cluster.stores_received c);
      (* Recovery: re-issuing the send goes through untouched. *)
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:512
        ~on_complete:(fun () -> acked := true);
      Cluster.run c;
      Alcotest.(check bool) "retry acked" true !acked;
      Alcotest.(check bytes) "retry delivered" data
        (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:512);
      Alcotest.(check int) "no further desyncs" 2 (Cluster.ring_desyncs c))

(* Ring wrap-around: fill the ring to capacity (the writer sees
   backpressure, not an overwrite), drain it, and check the wrapped
   slots are reused cleanly by real traffic. *)
let test_ring_wrap_backpressure () =
  let config = { Cluster.default_config with command_slots = 4 } in
  with_cluster ~config (fun c a b ->
      let accepted = ref 0 in
      while Cluster.Process.post_rogue a Utlb_nic.Command_queue.Noop do
        incr accepted
      done;
      Alcotest.(check int) "full at capacity" 4 !accepted;
      Utlb_nic.Mcp.kick (Utlb_nic.Nic.mcp (Cluster.nic c ~node:0));
      Cluster.run c;
      Alcotest.(check int) "noops are not desyncs" 0 (Cluster.ring_desyncs c);
      Alcotest.(check bool) "drained ring accepts again" true
        (Cluster.Process.post_rogue a Utlb_nic.Command_queue.Noop);
      Utlb_nic.Mcp.kick (Utlb_nic.Nic.mcp (Cluster.nic c ~node:0));
      Cluster.run c;
      (* Real traffic through the wrapped slots. *)
      let export_id, key = Cluster.Process.export b ~vaddr:0x10000 ~len:8192 in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      let data = pattern 256 17 in
      Cluster.Process.write_memory a ~vaddr:0x5000 data;
      Cluster.Process.send a h ~lvaddr:0x5000 ~offset:0 ~len:256;
      Cluster.run c;
      Alcotest.(check bytes) "delivered through wrapped slots" data
        (Cluster.Process.read_memory b ~vaddr:0x10000 ~len:256))

let suite =
  [
    Alcotest.test_case "message roundtrip" `Quick test_message_roundtrip;
    Alcotest.test_case "message rejects garbage" `Quick test_message_rejects_garbage;
    Alcotest.test_case "memory image" `Quick test_memory_image;
    Alcotest.test_case "remote store" `Quick test_remote_store;
    Alcotest.test_case "remote fetch" `Quick test_remote_fetch;
    Alcotest.test_case "wrong key to garbage page" `Quick
      test_wrong_key_goes_to_garbage;
    Alcotest.test_case "unknown export to garbage page" `Quick
      test_unknown_export_goes_to_garbage;
    Alcotest.test_case "out-of-bounds store rejected" `Quick
      test_out_of_bounds_store_rejected;
    Alcotest.test_case "transfer redirection" `Quick test_redirection;
    Alcotest.test_case "redirect requires ownership" `Quick
      test_redirect_requires_ownership;
    Alcotest.test_case "lossy fabric still delivers" `Quick
      test_lossy_fabric_still_delivers;
    Alcotest.test_case "UTLB active on both sides" `Quick
      test_utlb_active_on_both_sides;
    Alcotest.test_case "multi-process isolation" `Quick test_multi_process_per_node;
    QCheck_alcotest.to_alcotest prop_store_roundtrip;
    Alcotest.test_case "interrupt-based cluster" `Quick
      test_interrupt_based_cluster;
    Alcotest.test_case "intr cluster slower than utlb" `Quick
      test_intr_cluster_slower_than_utlb;
    Alcotest.test_case "notifications" `Quick test_notifications;
    Alcotest.test_case "kill process" `Quick test_kill_process;
    Alcotest.test_case "per-process translation cluster" `Quick
      test_per_process_translation_cluster;
    Alcotest.test_case "per-process kill releases pins" `Quick
      test_per_process_kill_releases;
    Alcotest.test_case "every registered engine" `Quick test_every_engine;
    Alcotest.test_case "ring desync: missing metadata" `Quick
      test_ring_desync_missing_meta;
    Alcotest.test_case "ring desync: kind mismatch" `Quick
      test_ring_desync_kind_mismatch;
    Alcotest.test_case "ring wrap backpressure" `Quick
      test_ring_wrap_backpressure;
  ]
