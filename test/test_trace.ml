open Utlb_trace
module Pid = Utlb_mem.Pid

let rec_ ?(t = 1.0) ?(pid = 0) ?(npages = 1) ?(op = Record.Send) vpn =
  Record.make ~time_us:t ~pid:(Pid.of_int pid) ~vpn ~npages ~op

let test_record_roundtrip () =
  let r = rec_ ~t:12.345 ~pid:3 ~npages:4 ~op:Record.Fetch 777 in
  match Record.of_string (Record.to_string r) with
  | Ok r' ->
    Alcotest.(check (float 1e-3)) "time" r.Record.time_us r'.Record.time_us;
    Alcotest.(check int) "pid" 3 (Pid.to_int r'.Record.pid);
    Alcotest.(check int) "vpn" 777 r'.Record.vpn;
    Alcotest.(check int) "npages" 4 r'.Record.npages;
    Alcotest.(check bool) "op" true (r'.Record.op = Record.Fetch)
  | Error e -> Alcotest.fail e

let test_record_parse_errors () =
  (match Record.of_string "not a record" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected field-count error");
  (match Record.of_string "1.0 0 5 1 Q" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected bad op error");
  (* A time that is not a finite number is refused like a negative one,
     with the line's own text; 1e400 parses as infinity. *)
  List.iter
    (fun (line, why) ->
      match Record.of_line ~line:3 line with
      | Error msg ->
        Alcotest.(check string) line
          (Printf.sprintf "line 3: Record.of_string: Record.make: %s in %S" why
             line)
          msg
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      ("nan 0 101 1 S", "non-finite time");
      ("1e400 0 101 1 S", "non-finite time");
      ("-inf 0 101 1 S", "non-finite time");
      ("-1.0 0 101 1 S", "negative time");
    ];
  (* A field that does not parse is named, with its text. *)
  List.iter
    (fun (line, why) ->
      match Record.of_line ~line:2 line with
      | Error msg ->
        Alcotest.(check string) line
          (Printf.sprintf "line 2: Record.of_string: %s in %S" why line)
          msg
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      ( "1.0 0 99999999999999999999999 1 S",
        "vpn \"99999999999999999999999\" is not an integer" );
      ("soon 0 101 1 S", "time \"soon\" is not a number");
      ("1.0 zero 101 1 S", "pid \"zero\" is not an integer");
      ("1.0 0 101 1.5 S", "npages \"1.5\" is not an integer");
    ]

let test_record_validation () =
  Alcotest.check_raises "npages" (Invalid_argument "Record.make: npages must be >= 1")
    (fun () -> ignore (rec_ ~npages:0 1));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Record.make: negative time") (fun () ->
      ignore (rec_ ~t:(-1.0) 1));
  List.iter
    (fun t ->
      Alcotest.check_raises (Printf.sprintf "time %h" t)
        (Invalid_argument "Record.make: non-finite time") (fun () ->
          ignore (rec_ ~t 1)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* The strict loader stops at such a line and names it; the lenient
     one skips it and keeps the rest. *)
  let file = Filename.temp_file "utlb" ".trace" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "0.0 0 5 1 S\nnan 0 101 1 S\n2.0 0 6 1 S\n");
  let strict = In_channel.with_open_text file Trace.load in
  let lenient, skipped = In_channel.with_open_text file (fun ic -> Trace.load_lenient ic) in
  Sys.remove file;
  (match strict with
  | Error msg ->
    Alcotest.(check bool) "strict load names line 2" true
      (String.starts_with ~prefix:"line 2: " msg)
  | Ok _ -> Alcotest.fail "strict load accepted a NaN time");
  Alcotest.(check (pair int int)) "lenient load keeps 2, skips 1" (2, 1)
    (Trace.length lenient, skipped)

let test_trace_sorting () =
  let t =
    Trace.of_records [| rec_ ~t:3.0 1; rec_ ~t:1.0 2; rec_ ~t:2.0 3 |]
  in
  let times =
    Array.to_list (Array.map (fun (r : Record.t) -> r.Record.time_us) (Trace.records t))
  in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 1.0; 2.0; 3.0 ] times

let test_trace_stats () =
  let t =
    Trace.of_records
      [|
        rec_ ~pid:0 ~npages:2 10 (* pages 10, 11 *);
        rec_ ~pid:0 10 (* page 10 again *);
        rec_ ~pid:1 10 (* same page, other pid *);
        rec_ ~pid:1 20;
      |]
  in
  Alcotest.(check int) "length" 4 (Trace.length t);
  Alcotest.(check int) "footprint counts distinct vpns" 3
    (Trace.footprint_pages t);
  Alcotest.(check int) "pages touched" 5 (Trace.total_pages_touched t);
  Alcotest.(check (list (pair int int)))
    "per pid"
    [ (0, 2); (1, 2) ]
    (List.map
       (fun (p, n) -> (Pid.to_int p, n))
       (Trace.per_pid_footprint t))

let test_trace_merge () =
  let a = Trace.of_records [| rec_ ~t:1.0 1; rec_ ~t:3.0 2 |] in
  let b = Trace.of_records [| rec_ ~t:2.0 3 |] in
  let m = Trace.merge [ a; b ] in
  Alcotest.(check int) "merged length" 3 (Trace.length m);
  let vpns = Array.map (fun (r : Record.t) -> r.Record.vpn) (Trace.records m) in
  Alcotest.(check (array int)) "interleaved by time" [| 1; 3; 2 |] vpns

let test_save_load_roundtrip () =
  let t =
    Trace.of_records
      (Array.init 50 (fun i -> rec_ ~t:(float_of_int i) ~pid:(i mod 3) (i * 7)))
  in
  let file = Filename.temp_file "utlb" ".trace" in
  Out_channel.with_open_text file (fun oc -> Trace.save t oc);
  let result = In_channel.with_open_text file Trace.load in
  Sys.remove file;
  match result with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
    Array.iteri
      (fun i (r : Record.t) ->
        let r' = (Trace.records t').(i) in
        Alcotest.(check int) "vpn" r.Record.vpn r'.Record.vpn)
      (Trace.records t)

let test_load_skips_comments () =
  let file = Filename.temp_file "utlb" ".trace" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc "# a comment\n\n1.0 0 5 1 S\n");
  let result = In_channel.with_open_text file Trace.load in
  Sys.remove file;
  match result with
  | Ok t -> Alcotest.(check int) "one record" 1 (Trace.length t)
  | Error e -> Alcotest.fail e

let prop_roundtrip =
  QCheck.Test.make ~name:"record to_string/of_string roundtrip" ~count:200
    QCheck.(quad (int_bound 7) (int_bound 100000) (int_range 1 8) bool)
    (fun (pid, vpn, npages, send) ->
      let op = if send then Record.Send else Record.Fetch in
      let r = rec_ ~t:5.25 ~pid ~npages ~op vpn in
      match Record.of_string (Record.to_string r) with
      | Ok r' -> Record.compare_time r r' = 0 && r'.Record.npages = npages
      | Error _ -> false)

let suite =
  [
    Alcotest.test_case "record roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "record parse errors" `Quick test_record_parse_errors;
    Alcotest.test_case "record validation" `Quick test_record_validation;
    Alcotest.test_case "trace sorting" `Quick test_trace_sorting;
    Alcotest.test_case "trace stats" `Quick test_trace_stats;
    Alcotest.test_case "trace merge" `Quick test_trace_merge;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "load skips comments" `Quick test_load_skips_comments;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
