open Utlb
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory

let make ?sram ?(entries = 8) ?(policy = Replacement.Lru) () =
  let host = Host_memory.create ~frames:256 () in
  ( host,
    Per_process.create ?sram ~host ~pid:(Pid.of_int 2) ~table_entries:entries
      ~policy ~seed:3L () )

let indices pp ~vpn ~npages =
  Array.init npages (fun i -> Per_process.index pp ~vpn:(vpn + i))

let test_basic_lookup () =
  let _, pp = make () in
  Alcotest.(check bool) "check miss" true
    (Per_process.lookup pp ~vpn:10 ~npages:2);
  Alcotest.(check int) "pinned" 2 (Per_process.pins pp);
  Alcotest.(check int) "occupancy" 2 (Per_process.occupancy pp);
  let first = indices pp ~vpn:10 ~npages:2 in
  Alcotest.(check bool) "hit" false (Per_process.lookup pp ~vpn:10 ~npages:2);
  Alcotest.(check int) "nothing more pinned" 2 (Per_process.pins pp);
  Alcotest.(check (array int)) "same indices" first
    (indices pp ~vpn:10 ~npages:2)

let test_ni_reads_table () =
  let host, pp = make () in
  ignore (Per_process.lookup pp ~vpn:10 ~npages:1);
  let index = Per_process.index pp ~vpn:10 in
  let frame = Option.get (Per_process.translate_index pp ~index) in
  Alcotest.(check (option int)) "matches the OS translation" (Some frame)
    (Host_memory.translate host (Pid.of_int 2) ~vpn:10)

let test_unused_index_is_garbage () =
  let _, pp = make () in
  Alcotest.(check (option int)) "unused slot reads garbage" None
    (Per_process.translate_index pp ~index:5)

let test_capacity_eviction () =
  let _, pp = make ~entries:4 () in
  for vpn = 0 to 3 do
    ignore (Per_process.lookup pp ~vpn ~npages:1)
  done;
  Alcotest.(check int) "full" 4 (Per_process.occupancy pp);
  ignore (Per_process.lookup pp ~vpn:10 ~npages:1);
  Alcotest.(check int) "still full" 4 (Per_process.occupancy pp);
  Alcotest.(check int) "one unpin" 1 (Per_process.unpins pp);
  (* LRU: vpn 0 was evicted. *)
  Alcotest.(check bool) "victim unpinned" false (Per_process.is_pinned pp ~vpn:0);
  Alcotest.(check bool) "new page pinned" true (Per_process.is_pinned pp ~vpn:10)

let test_fragmentation () =
  (* Interleaved use scatters a buffer's translations across the table —
     the fragmentation Hierarchical-UTLB eliminates (Section 3.3). *)
  let _, pp = make ~entries:8 () in
  ignore (Per_process.lookup pp ~vpn:0 ~npages:1) (* index 0 *);
  ignore (Per_process.lookup pp ~vpn:50 ~npages:1) (* index 1 *);
  ignore (Per_process.lookup pp ~vpn:0 ~npages:2);
  (* Page 1 lands on index 2, so the buffer maps to indices [0; 2]:
     two runs, not one. *)
  Alcotest.(check (array int)) "indices" [| 0; 2 |] (indices pp ~vpn:0 ~npages:2)

let test_buffer_larger_than_table () =
  let _, pp = make ~entries:4 () in
  Alcotest.check_raises "too large"
    (Invalid_argument "Per_process.lookup: buffer larger than translation table")
    (fun () -> ignore (Per_process.lookup pp ~vpn:0 ~npages:5))

let test_sram_backing () =
  let sram = Utlb_nic.Sram.create () in
  let _, pp = make ~sram ~entries:16 () in
  Alcotest.(check int) "sram bytes" 128 (Per_process.sram_bytes pp);
  (match Utlb_nic.Sram.region sram "pp-utlb-2" with
  | None -> Alcotest.fail "table region missing"
  | Some region ->
    ignore (Per_process.lookup pp ~vpn:3 ~npages:1);
    let index = Per_process.index pp ~vpn:3 in
    let word = Utlb_nic.Sram.read_word sram region index in
    Alcotest.(check (option int)) "SRAM word holds the frame"
      (Some (Int64.to_int word))
      (Per_process.translate_index pp ~index))

let prop_indices_valid =
  QCheck.Test.make ~name:"returned indices always translate" ~count:80
    QCheck.(list_of_size Gen.(1 -- 40) (pair (int_bound 30) (int_range 1 3)))
    (fun lookups ->
      let _, pp = make ~entries:8 () in
      List.for_all
        (fun (vpn, npages) ->
          ignore (Per_process.lookup pp ~vpn ~npages);
          Array.for_all
            (fun index -> Per_process.translate_index pp ~index <> None)
            (indices pp ~vpn ~npages))
        lookups)

let suite =
  [
    Alcotest.test_case "basic lookup" `Quick test_basic_lookup;
    Alcotest.test_case "NI reads table" `Quick test_ni_reads_table;
    Alcotest.test_case "unused index is garbage" `Quick test_unused_index_is_garbage;
    Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
    Alcotest.test_case "fragmentation" `Quick test_fragmentation;
    Alcotest.test_case "buffer larger than table" `Quick test_buffer_larger_than_table;
    Alcotest.test_case "sram backing" `Quick test_sram_backing;
    QCheck_alcotest.to_alcotest prop_indices_valid;
  ]
