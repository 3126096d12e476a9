(* Tests for the utlb_mem library: addresses, page tables, frame
   allocation, and the host pin/unpin facility. *)

open Utlb_mem

let test_addr_pages () =
  let open Addr in
  Alcotest.(check int) "page size" 4096 page_size;
  let va = Vaddr.of_page ~offset:100 5 in
  Alcotest.(check int) "page" 5 (Vaddr.page va);
  Alcotest.(check int) "offset" 100 (Vaddr.offset va);
  Alcotest.(check int) "roundtrip" ((5 * 4096) + 100) (Vaddr.to_int va)

let test_addr_spanned () =
  let open Addr in
  let at off = Vaddr.of_int off in
  Alcotest.(check int) "zero bytes" 0 (pages_spanned (at 0) ~bytes:0);
  Alcotest.(check int) "within page" 1 (pages_spanned (at 100) ~bytes:100);
  Alcotest.(check int) "exact page" 1 (pages_spanned (at 0) ~bytes:4096);
  Alcotest.(check int) "crosses one boundary" 2
    (pages_spanned (at 4000) ~bytes:200);
  Alcotest.(check int) "unaligned 2 pages" 3
    (pages_spanned (at 4095) ~bytes:4098)

let test_addr_invalid () =
  Alcotest.check_raises "negative vaddr"
    (Invalid_argument "Vaddr.of_int: negative address") (fun () ->
      ignore (Addr.Vaddr.of_int (-1)));
  Alcotest.check_raises "bad offset"
    (Invalid_argument "Vaddr.of_page: offset outside page") (fun () ->
      ignore (Addr.Vaddr.of_page ~offset:4096 0))

let test_page_table_basic () =
  let pt = Page_table.create () in
  Alcotest.(check (option int)) "miss" None
    (Option.map (fun (p : Page_table.pte) -> p.frame) (Page_table.find pt 7));
  Page_table.set pt 7 ~frame:42;
  (match Page_table.find pt 7 with
  | Some pte ->
    Alcotest.(check int) "frame" 42 pte.Page_table.frame;
    Alcotest.(check int) "unpinned" 0 pte.Page_table.pinned
  | None -> Alcotest.fail "entry missing");
  Alcotest.(check int) "resident" 1 (Page_table.resident_count pt);
  Alcotest.(check int) "one table" 1 (Page_table.second_level_tables pt)

let test_page_table_lazy_tables () =
  let pt = Page_table.create () in
  Page_table.set pt 0 ~frame:1;
  Page_table.set pt 1024 ~frame:2;
  Page_table.set pt 1025 ~frame:3;
  Alcotest.(check int) "two second-level tables" 2
    (Page_table.second_level_tables pt)

let test_page_table_pinning () =
  let pt = Page_table.create () in
  Page_table.set pt 5 ~frame:9;
  Alcotest.(check int) "pin" 1 (Page_table.adjust_pin pt 5 ~delta:1);
  Alcotest.(check int) "pin again" 2 (Page_table.adjust_pin pt 5 ~delta:1);
  Alcotest.check_raises "remove pinned"
    (Invalid_argument "Page_table.remove: page is pinned") (fun () ->
      Page_table.remove pt 5);
  Alcotest.(check int) "unpin" 0 (Page_table.adjust_pin pt 5 ~delta:(-2));
  Alcotest.check_raises "negative pin"
    (Invalid_argument "Page_table.adjust_pin: negative pin count") (fun () ->
      ignore (Page_table.adjust_pin pt 5 ~delta:(-1)));
  Page_table.remove pt 5;
  Alcotest.(check int) "removed" 0 (Page_table.resident_count pt)

let test_page_table_iter () =
  let pt = Page_table.create () in
  List.iter (fun v -> Page_table.set pt v ~frame:(v * 2)) [ 3; 1; 2000 ];
  let seen = ref [] in
  Page_table.iter pt (fun vpn pte -> seen := (vpn, pte.Page_table.frame) :: !seen);
  Alcotest.(check (list (pair int int)))
    "ascending iteration"
    [ (1, 2); (3, 6); (2000, 4000) ]
    (List.rev !seen)

let test_frame_allocator () =
  let fa = Frame_allocator.create ~frames:4 in
  Alcotest.(check int) "garbage is 0" 0 (Frame_allocator.garbage_frame fa);
  Alcotest.(check int) "free" 3 (Frame_allocator.free_count fa);
  let a = Option.get (Frame_allocator.alloc fa) in
  let b = Option.get (Frame_allocator.alloc fa) in
  let c = Option.get (Frame_allocator.alloc fa) in
  Alcotest.(check bool) "distinct" true (a <> b && b <> c && a <> c);
  Alcotest.(check (option int)) "exhausted" None (Frame_allocator.alloc fa);
  Frame_allocator.free fa b;
  Alcotest.(check (option int)) "reuses freed" (Some b)
    (Frame_allocator.alloc fa)

let test_frame_allocator_errors () =
  let fa = Frame_allocator.create ~frames:4 in
  Alcotest.check_raises "free garbage"
    (Invalid_argument "Frame_allocator.free: garbage frame") (fun () ->
      Frame_allocator.free fa 0);
  Alcotest.check_raises "double free"
    (Invalid_argument "Frame_allocator.free: double free") (fun () ->
      Frame_allocator.free fa 2)

let pid0 = Pid.of_int 0

let pid1 = Pid.of_int 1

let test_host_pin_unpin () =
  let host = Host_memory.create ~frames:64 () in
  Host_memory.add_process host pid0;
  (match Host_memory.pin host pid0 ~vpn:10 ~count:3 with
  | Ok frames ->
    Alcotest.(check int) "three frames" 3 (Array.length frames);
    Alcotest.(check bool) "pinned" true (Host_memory.is_pinned host pid0 ~vpn:11)
  | Error `Out_of_memory -> Alcotest.fail "unexpected OOM");
  Alcotest.(check int) "pinned pages" 3 (Host_memory.pinned_pages host pid0);
  Alcotest.(check int) "one ioctl" 1 (Host_memory.pin_calls host);
  Host_memory.unpin host pid0 ~vpn:10 ~count:3;
  Alcotest.(check int) "unpinned" 0 (Host_memory.pinned_pages host pid0);
  Alcotest.(check bool) "still resident" true
    (Host_memory.translate host pid0 ~vpn:10 <> None)

let test_host_pin_refcount () =
  let host = Host_memory.create ~frames:64 () in
  Host_memory.add_process host pid0;
  ignore (Host_memory.pin host pid0 ~vpn:5 ~count:1);
  ignore (Host_memory.pin host pid0 ~vpn:5 ~count:1);
  Alcotest.(check int) "refcount 2" 2 (Host_memory.pin_count host pid0 ~vpn:5);
  Host_memory.unpin host pid0 ~vpn:5 ~count:1;
  Alcotest.(check bool) "still pinned" true
    (Host_memory.is_pinned host pid0 ~vpn:5);
  Host_memory.unpin host pid0 ~vpn:5 ~count:1;
  Alcotest.(check bool) "now unpinned" false
    (Host_memory.is_pinned host pid0 ~vpn:5)

let test_host_unpin_unpinned () =
  let host = Host_memory.create ~frames:64 () in
  Host_memory.add_process host pid0;
  Alcotest.check_raises "unpin unpinned"
    (Invalid_argument "Host_memory.unpin: page not pinned") (fun () ->
      Host_memory.unpin host pid0 ~vpn:9 ~count:1)

let test_host_eviction () =
  (* 8 frames: garbage + 7 usable. Touch 7 pages, then more: the early
     unpinned ones get evicted to make room. *)
  let host = Host_memory.create ~frames:8 () in
  Host_memory.add_process host pid0;
  for vpn = 0 to 6 do
    match Host_memory.ensure_resident host pid0 ~vpn with
    | Ok _ -> ()
    | Error `Out_of_memory -> Alcotest.fail "should fit"
  done;
  (match Host_memory.ensure_resident host pid0 ~vpn:100 with
  | Ok _ -> ()
  | Error `Out_of_memory -> Alcotest.fail "eviction should make room");
  Alcotest.(check bool) "evicted something" true (Host_memory.evictions host > 0)

let test_host_oom_when_all_pinned () =
  let host = Host_memory.create ~frames:4 () in
  Host_memory.add_process host pid0;
  (match Host_memory.pin host pid0 ~vpn:0 ~count:3 with
  | Ok _ -> ()
  | Error `Out_of_memory -> Alcotest.fail "should fit");
  (match Host_memory.pin host pid0 ~vpn:50 ~count:1 with
  | Ok _ -> Alcotest.fail "expected OOM: every frame pinned"
  | Error `Out_of_memory -> ());
  (* The failed call must not leave partial pins behind. *)
  Alcotest.(check int) "no partial pins" 3 (Host_memory.pinned_pages host pid0)

let test_host_pin_rollback () =
  (* Pin range that only partially fits: nothing may remain pinned. *)
  let host = Host_memory.create ~frames:4 () in
  Host_memory.add_process host pid0;
  ignore (Host_memory.pin host pid0 ~vpn:0 ~count:2);
  (match Host_memory.pin host pid0 ~vpn:10 ~count:3 with
  | Ok _ -> Alcotest.fail "expected OOM"
  | Error `Out_of_memory -> ());
  Alcotest.(check int) "rolled back" 2 (Host_memory.pinned_pages host pid0)

let test_host_pin_out_of_range () =
  (* The range is checked before any page is touched: a call that runs
     past the last vpn pins nothing. *)
  let host = Host_memory.create ~frames:64 () in
  Host_memory.add_process host pid0;
  Alcotest.check_raises "past max vpn"
    (Invalid_argument "Host_memory.pin: vpn out of range") (fun () ->
      ignore
        (Host_memory.pin host pid0 ~vpn:(Page_table.max_vpn - 1) ~count:4));
  Alcotest.(check int) "nothing pinned" 0 (Host_memory.pinned_pages host pid0);
  Alcotest.(check int) "nothing faulted in" 0 (Host_memory.faults host);
  Alcotest.check_raises "negative vpn"
    (Invalid_argument "Host_memory.pin: vpn out of range") (fun () ->
      ignore (Host_memory.pin host pid0 ~vpn:(-1) ~count:2));
  Alcotest.(check int) "still nothing pinned" 0
    (Host_memory.pinned_pages host pid0)

let test_host_process_isolation () =
  let host = Host_memory.create ~frames:64 () in
  Host_memory.add_process host pid0;
  Host_memory.add_process host pid1;
  ignore (Host_memory.pin host pid0 ~vpn:7 ~count:1);
  ignore (Host_memory.pin host pid1 ~vpn:7 ~count:1);
  let f0 = Option.get (Host_memory.translate host pid0 ~vpn:7) in
  let f1 = Option.get (Host_memory.translate host pid1 ~vpn:7) in
  Alcotest.(check bool) "same vpn, different frames" true (f0 <> f1)

let test_host_unknown_process () =
  let host = Host_memory.create ~frames:8 () in
  Alcotest.check_raises "unknown process"
    (Invalid_argument "Host_memory: unknown process") (fun () ->
      ignore (Host_memory.translate host pid0 ~vpn:0))

let prop_pin_unpin_balance =
  QCheck.Test.make ~name:"pin/unpin always balances pinned_pages" ~count:100
    QCheck.(list (pair (int_bound 30) (int_range 1 4)))
    (fun ops ->
      let host = Host_memory.create ~frames:256 () in
      Host_memory.add_process host pid0;
      let pinned = Hashtbl.create 16 in
      List.iter
        (fun (vpn, count) ->
          match Host_memory.pin host pid0 ~vpn ~count with
          | Ok _ ->
            for v = vpn to vpn + count - 1 do
              Hashtbl.replace pinned v
                (1 + Option.value ~default:0 (Hashtbl.find_opt pinned v))
            done
          | Error `Out_of_memory -> ())
        ops;
      Hashtbl.iter
        (fun vpn _ ->
          let n = Hashtbl.find pinned vpn in
          for _ = 1 to n do
            Host_memory.unpin host pid0 ~vpn ~count:1
          done)
        pinned;
      Host_memory.pinned_pages host pid0 = 0)

let suite =
  [
    Alcotest.test_case "addr pages" `Quick test_addr_pages;
    Alcotest.test_case "addr pages_spanned" `Quick test_addr_spanned;
    Alcotest.test_case "addr invalid" `Quick test_addr_invalid;
    Alcotest.test_case "page table basic" `Quick test_page_table_basic;
    Alcotest.test_case "page table lazy tables" `Quick test_page_table_lazy_tables;
    Alcotest.test_case "page table pinning" `Quick test_page_table_pinning;
    Alcotest.test_case "page table iter" `Quick test_page_table_iter;
    Alcotest.test_case "frame allocator" `Quick test_frame_allocator;
    Alcotest.test_case "frame allocator errors" `Quick test_frame_allocator_errors;
    Alcotest.test_case "host pin/unpin" `Quick test_host_pin_unpin;
    Alcotest.test_case "host pin refcount" `Quick test_host_pin_refcount;
    Alcotest.test_case "host unpin unpinned" `Quick test_host_unpin_unpinned;
    Alcotest.test_case "host eviction" `Quick test_host_eviction;
    Alcotest.test_case "host OOM all pinned" `Quick test_host_oom_when_all_pinned;
    Alcotest.test_case "host pin rollback" `Quick test_host_pin_rollback;
    Alcotest.test_case "host pin out of range" `Quick test_host_pin_out_of_range;
    Alcotest.test_case "host process isolation" `Quick test_host_process_isolation;
    Alcotest.test_case "host unknown process" `Quick test_host_unknown_process;
    QCheck_alcotest.to_alcotest prop_pin_unpin_balance;
  ]
