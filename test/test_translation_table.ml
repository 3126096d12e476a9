open Utlb
module Pid = Utlb_mem.Pid

let garbage = 0

let make ?sram () =
  Translation_table.create ?sram ~garbage_frame:garbage ~pid:(Pid.of_int 1) ()

let test_install_lookup () =
  let t = make () in
  Alcotest.(check int) "initially garbage" Translation_table.garbage_entry
    (Translation_table.lookup t ~vpn:5);
  Translation_table.install t ~vpn:5 ~frame:42;
  Alcotest.(check int) "frame" 42 (Translation_table.lookup t ~vpn:5);
  Alcotest.(check int) "valid entries" 1 (Translation_table.valid_entries t)

let test_invalidate () =
  let t = make () in
  Translation_table.install t ~vpn:5 ~frame:42;
  Translation_table.invalidate t ~vpn:5;
  Alcotest.(check int) "back to garbage" Translation_table.garbage_entry
    (Translation_table.lookup t ~vpn:5);
  Alcotest.(check int) "no valid entries" 0 (Translation_table.valid_entries t);
  (* Invalidating an untouched page is harmless. *)
  Translation_table.invalidate t ~vpn:999;
  Alcotest.(check int) "still zero" 0 (Translation_table.valid_entries t)

let test_reinstall_counts_once () =
  let t = make () in
  Translation_table.install t ~vpn:5 ~frame:42;
  Translation_table.install t ~vpn:5 ~frame:43;
  Alcotest.(check int) "one valid entry" 1 (Translation_table.valid_entries t);
  Alcotest.(check int) "latest frame" 43 (Translation_table.lookup t ~vpn:5)

let test_second_level_growth () =
  let t = make () in
  Translation_table.install t ~vpn:0 ~frame:1;
  Translation_table.install t ~vpn:1 ~frame:2;
  Alcotest.(check int) "one table" 1 (Translation_table.second_level_tables t);
  Translation_table.install t ~vpn:(1024 * 3) ~frame:3;
  Alcotest.(check int) "two tables" 2 (Translation_table.second_level_tables t)

let test_swap_out_in () =
  let t = make () in
  Translation_table.install t ~vpn:10 ~frame:7;
  Alcotest.(check bool) "swap out" true
    (Translation_table.swap_out t ~dir_index:0 ~disk_block:55);
  Alcotest.(check int) "swapped count" 1 (Translation_table.swapped_tables t);
  Alcotest.(check int) "swapped to disk block 55" (-(55 + 2))
    (Translation_table.lookup t ~vpn:10);
  Alcotest.(check bool) "swap out twice fails" false
    (Translation_table.swap_out t ~dir_index:0 ~disk_block:56);
  Alcotest.(check bool) "swap in" true (Translation_table.swap_in t ~dir_index:0);
  Alcotest.(check int) "entries preserved" 7 (Translation_table.lookup t ~vpn:10);
  Alcotest.(check bool) "swap in twice fails" false
    (Translation_table.swap_in t ~dir_index:0)

let test_swap_out_empty_slot () =
  let t = make () in
  Alcotest.(check bool) "no table to swap" false
    (Translation_table.swap_out t ~dir_index:3 ~disk_block:1)

let test_install_into_swapped_rejected () =
  let t = make () in
  Translation_table.install t ~vpn:10 ~frame:7;
  ignore (Translation_table.swap_out t ~dir_index:0 ~disk_block:1);
  Alcotest.check_raises "install"
    (Invalid_argument "Translation_table.install: table is swapped out")
    (fun () -> Translation_table.install t ~vpn:11 ~frame:8)

let test_sram_directory () =
  let sram = Utlb_nic.Sram.create () in
  let t = make ~sram () in
  Translation_table.install t ~vpn:100 ~frame:5;
  (* The directory region exists on the NI and reflects residency. *)
  match Utlb_nic.Sram.region sram "utlb-dir-1" with
  | None -> Alcotest.fail "directory region missing"
  | Some region ->
    Alcotest.(check int) "1024 words" (1024 * 8) region.Utlb_nic.Sram.length;
    Alcotest.(check bool) "directory word set" true
      (Utlb_nic.Sram.read_word sram region 0 <> 0L)

let test_garbage_frame_install () =
  let t = make () in
  (* Installing the garbage frame itself must not count as valid. *)
  Translation_table.install t ~vpn:3 ~frame:garbage;
  Alcotest.(check int) "not valid" 0 (Translation_table.valid_entries t)

let prop_model =
  QCheck.Test.make ~name:"translation table agrees with a map model"
    ~count:150
    QCheck.(list (pair (int_bound 3000) (option (int_range 1 100000))))
    (fun ops ->
      let t = make () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (vpn, op) ->
          match op with
          | Some frame ->
            Translation_table.install t ~vpn ~frame;
            Hashtbl.replace model vpn frame
          | None ->
            Translation_table.invalidate t ~vpn;
            Hashtbl.remove model vpn)
        ops;
      Hashtbl.length model = Translation_table.valid_entries t
      && Hashtbl.fold
           (fun vpn frame ok ->
             ok
             && Translation_table.lookup t ~vpn = frame)
           model true)

let suite =
  [
    Alcotest.test_case "install/lookup" `Quick test_install_lookup;
    Alcotest.test_case "invalidate" `Quick test_invalidate;
    Alcotest.test_case "reinstall counts once" `Quick test_reinstall_counts_once;
    Alcotest.test_case "second-level growth" `Quick test_second_level_growth;
    Alcotest.test_case "swap out/in" `Quick test_swap_out_in;
    Alcotest.test_case "swap out empty slot" `Quick test_swap_out_empty_slot;
    Alcotest.test_case "install into swapped" `Quick test_install_into_swapped_rejected;
    Alcotest.test_case "sram directory" `Quick test_sram_directory;
    Alcotest.test_case "garbage frame install" `Quick test_garbage_frame_install;
    QCheck_alcotest.to_alcotest prop_model;
  ]
