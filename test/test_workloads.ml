open Utlb_trace
module Pid = Utlb_mem.Pid

let seed = 42L

let tolerance = 0.15

let close ~target actual =
  Float.abs (float_of_int actual -. float_of_int target)
  /. float_of_int target
  < tolerance

let test_calibration () =
  (* Every generator must land within 15% of Table 3's footprint and
     lookup count. *)
  List.iter
    (fun (spec : Workloads.spec) ->
      let trace = spec.generate ~seed in
      Alcotest.(check bool)
        (spec.name ^ " footprint close to Table 3")
        true
        (close ~target:spec.table3_footprint (Trace.footprint_pages trace));
      Alcotest.(check bool)
        (spec.name ^ " lookups close to Table 3")
        true
        (close ~target:spec.table3_lookups (Trace.length trace)))
    Workloads.all

let test_determinism () =
  List.iter
    (fun (spec : Workloads.spec) ->
      let a = spec.generate ~seed and b = spec.generate ~seed in
      Alcotest.(check int) (spec.name ^ " same length") (Trace.length a)
        (Trace.length b);
      Array.iteri
        (fun i (r : Record.t) ->
          if Record.compare_time r (Trace.records b).(i) <> 0 then
            Alcotest.fail (spec.name ^ ": traces diverge"))
        (Trace.records a))
    [ Workloads.fft; Workloads.water ]

let test_seed_changes_trace () =
  let a = Workloads.raytrace.generate ~seed:1L in
  let b = Workloads.raytrace.generate ~seed:2L in
  let exists2 x y =
    let n = min (Array.length x) (Array.length y) in
    let rec go i =
      i < n && (Record.compare_time x.(i) y.(i) <> 0 || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "different seeds differ" true
    (Trace.length a <> Trace.length b
    || exists2 (Trace.records a) (Trace.records b))

let test_five_processes () =
  List.iter
    (fun (spec : Workloads.spec) ->
      let trace = spec.generate ~seed in
      let pids = List.map Pid.to_int (Trace.pids trace) in
      Alcotest.(check (list int))
        (spec.name ^ " has 4 app + 1 protocol process")
        [ 0; 1; 2; 3; 4 ] pids)
    Workloads.all

let test_timestamps_monotone () =
  let trace = Workloads.lu.generate ~seed in
  let last = ref neg_infinity in
  Trace.iter trace (fun r ->
      if r.Record.time_us < !last then Alcotest.fail "time went backwards";
      last := r.Record.time_us)

let test_protocol_mirrors_app_pages () =
  (* The protocol process touches only pages that application processes
     also touch (SVM home traffic). *)
  let trace = Workloads.volrend.generate ~seed in
  let app_pages = Hashtbl.create 1024 in
  Trace.iter trace (fun r ->
      if Pid.to_int r.Record.pid < Workloads.app_processes then
        for i = 0 to r.Record.npages - 1 do
          Hashtbl.replace app_pages (r.Record.vpn + i) ()
        done);
  let stray = ref 0 in
  Trace.iter trace (fun r ->
      if Pid.equal r.Record.pid Workloads.protocol_pid then
        for i = 0 to r.Record.npages - 1 do
          if not (Hashtbl.mem app_pages (r.Record.vpn + i)) then incr stray
        done);
  (* Block rounding can graze a page or two outside; essentially all
     mirror traffic must target app pages. *)
  Alcotest.(check bool) "mirrors app pages" true (!stray < 20)

let test_partitions_alias_mod_16384 () =
  (* The SPMD layout property behind Table 8: different processes'
     partitions occupy vpn ranges congruent modulo 16384. *)
  let trace = Workloads.water.generate ~seed in
  let mins = Hashtbl.create 8 in
  Trace.iter trace (fun r ->
      let p = Pid.to_int r.Record.pid in
      if p < Workloads.app_processes then
        let cur = Option.value ~default:max_int (Hashtbl.find_opt mins p) in
        if r.Record.vpn < cur then Hashtbl.replace mins p r.Record.vpn);
  let base0 = Hashtbl.find mins 0 mod 16384 in
  for p = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "pid %d aliases pid 0" p)
      base0
      (Hashtbl.find mins p mod 16384)
  done

let test_find () =
  Alcotest.(check bool) "find fft" true (Workloads.find "FFT" <> None);
  Alcotest.(check bool) "unknown" true (Workloads.find "doom" = None);
  Alcotest.(check int) "seven workloads" 7 (List.length Workloads.all)



let test_scaled () =
  let base = Workloads.water in
  let double = Workloads.scaled base ~factor:2.0 in
  let t1 = base.generate ~seed and t2 = double.generate ~seed in
  let f1 = Trace.footprint_pages t1 and f2 = Trace.footprint_pages t2 in
  Alcotest.(check bool) "footprint roughly doubles" true
    (float_of_int f2 > 1.7 *. float_of_int f1
    && float_of_int f2 < 2.3 *. float_of_int f1);
  Alcotest.(check bool) "lookups grow" true (Trace.length t2 > Trace.length t1);
  (* Scaling composes. *)
  let back = Workloads.scaled double ~factor:0.5 in
  let t3 = back.generate ~seed in
  Alcotest.(check bool) "rescaling back" true
    (abs (Trace.footprint_pages t3 - f1) < f1 / 5)

let test_scaled_invalid () =
  Alcotest.check_raises "zero factor"
    (Invalid_argument "Workloads.scaled: factor must be positive") (fun () ->
      ignore (Workloads.scaled Workloads.fft ~factor:0.0))

(* NaN, and a factor that scales the footprint or the lookup count past
   an int, used to fall through [int_of_float] to the minimum size. The
   paper apps and the interference scenario share one check. *)
let test_scaled_meaningless () =
  List.iter
    (fun (spec : Workloads.spec) ->
      List.iter
        (fun (factor, msg) ->
          Alcotest.check_raises
            (Printf.sprintf "%s@%g" spec.name factor)
            (Invalid_argument ("Workloads.scaled: " ^ msg))
            (fun () -> ignore (Workloads.scaled spec ~factor)))
        [
          (Float.nan, "factor must be positive");
          (Float.infinity, "factor too large");
          (1e300, "factor too large");
          (1e15, "factor too large");
          (* These fit an int, but the partitions run past the page
             table. *)
          (1e14, "factor too large");
          (1e10, "factor too large");
        ])
    [ Workloads.fft; Workloads.water; Workloads.interference ];
  (* The largest factor whose partitions fit the page table keeps its
     counts, and the next is refused. *)
  let big = Workloads.scaled Workloads.water ~factor:1976.0 in
  Alcotest.(check int) "1976x footprint" (1890 * 1976) big.table3_footprint;
  Alcotest.check_raises "water@1977"
    (Invalid_argument "Workloads.scaled: factor too large") (fun () ->
      ignore (Workloads.scaled Workloads.water ~factor:1977.0));
  ignore (Workloads.scaled Workloads.fft ~factor:345.0);
  Alcotest.check_raises "fft@346"
    (Invalid_argument "Workloads.scaled: factor too large") (fun () ->
      ignore (Workloads.scaled Workloads.fft ~factor:346.0))



let test_multiprogram () =
  let mix = Workloads.multiprogram [ Workloads.water; Workloads.barnes ] in
  let trace = mix.generate ~seed in
  (* Two applications, each with 4 app processes + 1 protocol process,
     pids renumbered into disjoint ranges. *)
  Alcotest.(check (list int)) "ten disjoint pids"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map Pid.to_int (Trace.pids trace));
  let w = Workloads.water.generate ~seed in
  let b = Workloads.barnes.generate ~seed:(Int64.add seed 7919L) in
  Alcotest.(check int) "records are the union"
    (Trace.length w + Trace.length b)
    (Trace.length trace);
  (* Composes with scaling. *)
  let half = Workloads.scaled mix ~factor:0.5 in
  Alcotest.(check bool) "scaled mix shrinks" true
    (Trace.length (half.generate ~seed) < Trace.length trace)

let test_multiprogram_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Workloads.multiprogram: empty list") (fun () ->
      ignore (Workloads.multiprogram []))

(* One digest per generated trace over every record's fields, with the
   time as its IEEE bits. Two runs of one build agreeing (above) does
   not show that a change to the generator left its traces alone;
   these literals do. *)
let trace_digest trace =
  let b = Buffer.create 4096 in
  Trace.iter trace (fun (r : Record.t) ->
      Buffer.add_int64_le b (Int64.bits_of_float r.time_us);
      Buffer.add_int64_le b (Int64.of_int (Pid.to_int r.pid));
      Buffer.add_int64_le b (Int64.of_int r.vpn);
      Buffer.add_int64_le b (Int64.of_int r.npages);
      Buffer.add_char b (match r.op with Record.Send -> 'S' | Record.Fetch -> 'F'));
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_specs =
  Workloads.all
  @ [
      Workloads.interference;
      Workloads.scaled Workloads.fft ~factor:0.5;
      Workloads.multiprogram [ Workloads.fft; Workloads.lu ];
    ]

let pinned_digests =
  [
    ( 42L,
      [ "f9406729898c8c59e2e4fd1034de4195"; "feff610954a8a4f9648008c3d2d37cd0";
        "43b11abaf447d20f78fa6b470815f918"; "f2cf812947c5e8aa52f08678380122d7";
        "b320e50666a5ff4a52430214f66261ed"; "c6cdbfd18d9762ab35057aaab1dc2a48";
        "0c519cbe887360caa8d677339063d055"; "055317fa7ae3c79d66eb5bc000bc748b";
        "0aea82d76d6d9b4f1eeecf6d0d08a55b"; "89be63008e0192e87ffb7eb92a9d0763" ] );
    ( Utlb.Sim_driver.default_seed,
      [ "839c3e2f729f6bc951c25b8c35ee5943"; "995edd1711c580c275acde93de42aee9";
        "af19c8e6af2f8376bbf34e0f0abf1f58"; "b08479be842374e102e52dc6c55ea42d";
        "f33080df0c24f441c9d197ff749489a6"; "308a976b71e77a110980cd432354bea6";
        "8588e467b03d1283381bcfb4605223d8"; "2b6b0dc5f8f4ecf5ac1d98baac02989c";
        "ef9f5d6ed372d9eccfd849f7987c25a9"; "493eebec9826631afd76ea7c5530de4f" ] );
  ]

let test_pinned_traces () =
  List.iter
    (fun (seed, digests) ->
      List.iter2
        (fun (spec : Workloads.spec) expected ->
          Alcotest.(check string)
            (Printf.sprintf "%s sized %d, seed %Ld" spec.name
               spec.table3_lookups seed)
            expected
            (trace_digest (spec.generate ~seed)))
        pinned_specs digests)
    pinned_digests

let test_pinned_patterns () =
  let seq = Pattern.sequential ~npages:3 ~pages:50 () in
  let uni = Pattern.uniform_random ~npages:2 ~lookups:300 ~pages:100 () in
  let str = Pattern.strided ~pairs:true ~pages:60 () in
  List.iter
    (fun (name, pattern, expected) ->
      Alcotest.(check string) name expected
        (trace_digest (Pattern.to_trace ~seed pattern)))
    [
      ("sequential", seq, "245ef897185f4063e838da0d44b0b673");
      ("strided", str, "0af1a6f043e3f6aa83a9216521aea6dc");
      ( "cyclic",
        Pattern.cyclic ~passes:3 ~npages:2 ~pages:40 (),
        "fbe2dde679bb72de20f0e9d2b65bec7e" );
      ( "hot_cold",
        Pattern.hot_cold ~hot_fraction:0.2 ~hot_bias:0.8 ~lookups:300 ~pages:100,
        "d356cbd89273ee6b0e9b3abf27be7378" );
      ("uniform_random", uni, "8412e569bde64691f1de1e07376de774");
      ("concat", Pattern.concat [ seq; uni ], "2af878b27da9afac634759444843c03c");
      ("repeat", Pattern.repeat 3 str, "17bb1c305953c4f5915bcdd1c2431790");
      ( "mix",
        Pattern.mix [ (0.7, seq); (0.3, uni) ] ~lookups:300,
        "e22b38e7a2e897dacfc7327c548aa8ce" );
    ]

let suite =
  [
    Alcotest.test_case "Table 3 calibration" `Slow test_calibration;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_trace;
    Alcotest.test_case "five processes" `Slow test_five_processes;
    Alcotest.test_case "timestamps monotone" `Quick test_timestamps_monotone;
    Alcotest.test_case "protocol mirrors app pages" `Quick
      test_protocol_mirrors_app_pages;
    Alcotest.test_case "partitions alias mod 16384" `Quick
      test_partitions_alias_mod_16384;
    Alcotest.test_case "find by name" `Quick test_find;
    Alcotest.test_case "scaled workloads" `Slow test_scaled;
    Alcotest.test_case "scaled invalid factor" `Quick test_scaled_invalid;
    Alcotest.test_case "scaled refuses meaningless factors" `Quick
      test_scaled_meaningless;
    Alcotest.test_case "multiprogram mix" `Slow test_multiprogram;
    Alcotest.test_case "multiprogram empty" `Quick test_multiprogram_empty;
    Alcotest.test_case "pinned trace digests" `Slow test_pinned_traces;
    Alcotest.test_case "pinned pattern digests" `Quick test_pinned_patterns;
  ]
