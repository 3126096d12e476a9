open Utlb

let test_set_clear () =
  let bv = Bitvec.create () in
  Alcotest.(check bool) "initially clear" false (Bitvec.test bv 100);
  Bitvec.set bv 100;
  Alcotest.(check bool) "set" true (Bitvec.test bv 100);
  Alcotest.(check int) "population" 1 (Bitvec.population bv);
  Bitvec.set bv 100;
  Alcotest.(check int) "idempotent set" 1 (Bitvec.population bv);
  Bitvec.clear bv 100;
  Alcotest.(check bool) "cleared" false (Bitvec.test bv 100);
  Bitvec.clear bv 100;
  Alcotest.(check int) "idempotent clear" 0 (Bitvec.population bv)

let test_sparse_pages () =
  let bv = Bitvec.create () in
  (* Far-apart pages exercise separate chunks. *)
  List.iter (Bitvec.set bv) [ 0; 61; 62; 1_000_000; 5_000_000 ];
  Alcotest.(check int) "population" 5 (Bitvec.population bv);
  Alcotest.(check bool) "far page" true (Bitvec.test bv 5_000_000);
  Alcotest.(check bool) "neighbour clear" false (Bitvec.test bv 4_999_999)

let test_range_queries () =
  let bv = Bitvec.create () in
  List.iter (Bitvec.set bv) [ 10; 11; 13 ];
  Alcotest.(check bool) "not all set" false (Bitvec.all_set bv ~vpn:10 ~count:4);
  Alcotest.(check bool) "prefix set" true (Bitvec.all_set bv ~vpn:10 ~count:2);
  Alcotest.(check int) "first clear" 12 (Bitvec.first_clear bv ~vpn:10 ~count:4);
  Alcotest.(check int) "next clear" 14 (Bitvec.first_clear bv ~vpn:13 ~count:2);
  Alcotest.(check int) "first set" 13 (Bitvec.first_set bv ~vpn:12 ~count:3);
  Alcotest.(check int) "none clear" (-1) (Bitvec.first_clear bv ~vpn:10 ~count:2);
  Alcotest.(check int) "clear count" 2 (Bitvec.clear_count bv ~vpn:10 ~count:5)

let test_range_crossing_chunk () =
  let bv = Bitvec.create () in
  (* Range straddling the 62-bit chunk boundary. *)
  for v = 58 to 66 do
    Bitvec.set bv v
  done;
  Alcotest.(check bool) "cross-chunk all_set" true
    (Bitvec.all_set bv ~vpn:58 ~count:9);
  Bitvec.clear bv 62;
  Alcotest.(check int) "finds hole at boundary" 62
    (Bitvec.first_clear bv ~vpn:58 ~count:9);
  Alcotest.(check int) "next set past the hole" 63
    (Bitvec.first_set bv ~vpn:62 ~count:5)

let test_invalid () =
  let bv = Bitvec.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Bitvec: negative vpn")
    (fun () -> Bitvec.set bv (-1));
  Alcotest.check_raises "bad count"
    (Invalid_argument "Bitvec: count must be positive") (fun () ->
      ignore (Bitvec.all_set bv ~vpn:0 ~count:0))

let prop_model =
  QCheck.Test.make ~name:"bitvec agrees with a set model" ~count:200
    QCheck.(list (pair bool (int_bound 500)))
    (fun ops ->
      let bv = Bitvec.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (set, v) ->
          if set then begin
            Bitvec.set bv v;
            Hashtbl.replace model v ()
          end
          else begin
            Bitvec.clear bv v;
            Hashtbl.remove model v
          end)
        ops;
      Hashtbl.length model = Bitvec.population bv
      && List.for_all
           (fun v -> Bitvec.test bv v = Hashtbl.mem model v)
           (List.init 501 (fun i -> i)))

let suite =
  [
    Alcotest.test_case "set/clear" `Quick test_set_clear;
    Alcotest.test_case "sparse pages" `Quick test_sparse_pages;
    Alcotest.test_case "range queries" `Quick test_range_queries;
    Alcotest.test_case "range crossing chunk" `Quick test_range_crossing_chunk;
    Alcotest.test_case "invalid arguments" `Quick test_invalid;
    QCheck_alcotest.to_alcotest prop_model;
  ]
