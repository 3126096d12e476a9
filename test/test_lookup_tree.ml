open Utlb

let test_basic () =
  let t = Lookup_tree.create () in
  Alcotest.(check int) "miss" (-1) (Lookup_tree.find t 5);
  Lookup_tree.set t 5 ~index:17;
  Alcotest.(check int) "hit" 17 (Lookup_tree.find t 5);
  Lookup_tree.set t 5 ~index:23;
  Alcotest.(check int) "overwrite" 23 (Lookup_tree.find t 5);
  Alcotest.(check int) "entries counts once" 1 (Lookup_tree.entries t);
  Lookup_tree.remove t 5;
  Alcotest.(check int) "removed" (-1) (Lookup_tree.find t 5);
  Lookup_tree.remove t 5;
  Alcotest.(check int) "idempotent remove" 0 (Lookup_tree.entries t)

let test_two_level_split () =
  let t = Lookup_tree.create () in
  (* Same second-level index, different directories. *)
  Lookup_tree.set t 5 ~index:1;
  Lookup_tree.set t (1024 + 5) ~index:2;
  Alcotest.(check int) "dir 0" 1 (Lookup_tree.find t 5);
  Alcotest.(check int) "dir 1" 2 (Lookup_tree.find t 1029)

let test_bounds () =
  let t = Lookup_tree.create () in
  Lookup_tree.set t Lookup_tree.max_vpn ~index:9;
  Alcotest.(check int) "max vpn" 9 (Lookup_tree.find t Lookup_tree.max_vpn);
  Alcotest.check_raises "beyond max"
    (Invalid_argument "Lookup_tree: vpn out of range") (fun () ->
      ignore (Lookup_tree.find t (Lookup_tree.max_vpn + 1)));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Lookup_tree.set: negative index") (fun () ->
      Lookup_tree.set t 0 ~index:(-1))

let test_iter_ascending () =
  let t = Lookup_tree.create () in
  List.iter (fun (v, i) -> Lookup_tree.set t v ~index:i)
    [ (2000, 3); (5, 1); (100, 2) ];
  let seen = ref [] in
  Lookup_tree.iter t (fun vpn index -> seen := (vpn, index) :: !seen);
  Alcotest.(check (list (pair int int)))
    "ascending" [ (5, 1); (100, 2); (2000, 3) ] (List.rev !seen)

let test_cost_property () =
  Alcotest.(check int) "two memory references" 2 Lookup_tree.memory_references

let prop_model =
  QCheck.Test.make ~name:"lookup tree agrees with a map model" ~count:200
    QCheck.(list (pair (int_bound 5000) (option (int_bound 8191))))
    (fun ops ->
      let t = Lookup_tree.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (vpn, op) ->
          match op with
          | Some index ->
            Lookup_tree.set t vpn ~index;
            Hashtbl.replace model vpn index
          | None ->
            Lookup_tree.remove t vpn;
            Hashtbl.remove model vpn)
        ops;
      Hashtbl.length model = Lookup_tree.entries t
      && Hashtbl.fold
           (fun vpn index ok -> ok && Lookup_tree.find t vpn = index)
           model true)

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "two-level split" `Quick test_two_level_split;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "iter ascending" `Quick test_iter_ascending;
    Alcotest.test_case "lookup cost" `Quick test_cost_property;
    QCheck_alcotest.to_alcotest prop_model;
  ]
