(* The utlbcheck verify passes: the merged code catalogue, finding
   ordering and JSON output, config-file parsing edge cases, the static
   protocol verifier's lattice and UP0x triggers, the UP01-UP05
   admission rules replayed through the engines they describe, the
   timeline event parser/reader, the happens-before race detector's
   UP1x codes, and the LINTS.md <-> catalogue sync. *)

module Finding = Utlb_check.Finding
module Catalogue = Utlb_check.Catalogue
module Config_file = Utlb_check.Config_file
module Protocol = Utlb_check.Protocol
module Hb = Utlb_check.Hb
module Event = Utlb_obs.Event
module Reader = Utlb_obs.Reader
module Record = Utlb_trace.Record
module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Stepper = Utlb.Stepper
module Sim_driver = Utlb.Sim_driver
module Sanitizer = Utlb_sim.Sanitizer

let codes fs = List.map (fun (f : Finding.t) -> f.Finding.code) fs

(* {2 Catalogue} *)

let test_catalogue_unique () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool)
        (code ^ " appears once") false (Hashtbl.mem seen code);
      Hashtbl.add seen code ())
    Catalogue.all

let test_catalogue_describe () =
  List.iter
    (fun (code, desc) ->
      Alcotest.(check (option string)) code (Some desc)
        (Catalogue.describe code);
      Alcotest.(check bool) (code ^ " mem") true (Catalogue.mem code))
    Catalogue.all;
  Alcotest.(check (option string)) "unknown" None (Catalogue.describe "UX99")

let test_catalogue_families () =
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " catalogued") true (Catalogue.mem code))
    [ "UC001"; "UC101"; "UV01"; "UV08"; "UP00"; "UP05"; "UP10"; "UP13";
      "UP20"; "UP23" ];
  (* The runtime slice Invariant exposes resolves against the same
     merged table. *)
  List.iter
    (fun (code, desc) ->
      Alcotest.(check (option string)) code (Some desc)
        (Utlb_check.Invariant.describe code))
    Utlb_check.Invariant.codes

(* {2 Finding ordering and JSON} *)

let test_by_severity_deterministic () =
  let f sev code = Finding.v ~severity:sev ~code "m" in
  let input =
    [
      f Finding.Warning "W1"; f Finding.Info "I1"; f Finding.Error "E1";
      f Finding.Warning "W2"; f Finding.Error "E2"; f Finding.Info "I2";
    ]
  in
  let sorted = Finding.by_severity input in
  Alcotest.(check (list string))
    "severity order, input order within severity"
    [ "E1"; "E2"; "W1"; "W2"; "I1"; "I2" ]
    (codes sorted);
  Alcotest.(check (list string))
    "idempotent" (codes sorted)
    (codes (Finding.by_severity sorted))

let test_finding_pp_line () =
  let s f = Format.asprintf "%a" Finding.pp f in
  Alcotest.(check string) "context+line" "t.trace:7: UP01 error: boom"
    (s (Finding.v ~context:"t.trace" ~line:7 ~code:"UP01" "boom"));
  Alcotest.(check string) "line only" "line 7: UP01 error: boom"
    (s (Finding.v ~line:7 ~code:"UP01" "boom"));
  Alcotest.(check string) "bare" "UP01 error: boom"
    (s (Finding.v ~code:"UP01" "boom"))

let test_finding_json () =
  let s f = Format.asprintf "%a" Finding.pp_json f in
  Alcotest.(check string) "all fields"
    "{\"code\":\"UP10\",\"severity\":\"warning\",\"message\":\"a \\\"b\\\" \
     \\\\ c\",\"context\":\"x.grid\",\"line\":3}"
    (s
       (Finding.v ~severity:Finding.Warning ~context:"x.grid" ~line:3
          ~code:"UP10" "a \"b\" \\ c"));
  Alcotest.(check string) "minimal"
    "{\"code\":\"UC001\",\"severity\":\"error\",\"message\":\"m\\nn\"}"
    (s (Finding.v ~code:"UC001" "m\nn"));
  let l = Format.asprintf "%a" Finding.pp_json_list [] in
  Alcotest.(check string) "empty list" "[]" l;
  let l =
    Format.asprintf "%a" Finding.pp_json_list [ Finding.v ~code:"UC001" "m" ]
  in
  Alcotest.(check bool) "array brackets" true
    (String.length l > 2 && l.[0] = '[' && l.[String.length l - 1] = ']')

(* {2 Config_file edge cases} *)

let test_config_duplicate_keys () =
  let config, findings =
    Config_file.parse_string ~source:"dup" "entries = 1024\nentries = 2048\n"
  in
  Alcotest.(check int) "later value wins" 2048 config.Config_file.entries;
  Alcotest.(check (list string)) "UC004 reported" [ "UC004" ] (codes findings)

let test_config_whitespace () =
  let config, findings =
    Config_file.parse_string ~source:"ws"
      "  engine   =   intr   \n\tentries\t=\t4096\t\n"
  in
  Alcotest.(check (list string)) "no findings" [] (codes findings);
  Alcotest.(check string) "engine" "intr"
    (Config_file.engine_name config.Config_file.engine);
  Alcotest.(check int) "entries" 4096 config.Config_file.entries

let test_config_crlf () =
  let config, findings =
    Config_file.parse_string ~source:"crlf"
      "engine = per-process\r\nprocesses = 4\r\n# comment\r\n\r\n"
  in
  Alcotest.(check (list string)) "no findings" [] (codes findings);
  Alcotest.(check int) "processes" 4 config.Config_file.processes

let test_config_empty () =
  let config, findings = Config_file.parse_string ~source:"empty" "" in
  Alcotest.(check (list string)) "no findings" [] (codes findings);
  Alcotest.(check int) "defaults intact" Config_file.default.Config_file.entries
    config.Config_file.entries

(* {2 Protocol verifier} *)

let record ?(t = 0.0) ~pid ~vpn ~npages () =
  Record.make ~time_us:t ~pid:(Pid.of_int pid) ~vpn ~npages ~op:Record.Send

let hier ?(prepin = 1) ?limit () =
  Stepper.Hier { prepin; limit_pages = limit; backstop = Stepper.No_backstop }

let verify sem records =
  Protocol.verify_records sem
    (List.mapi (fun i r -> (i + 1, r)) records)

let test_protocol_clean () =
  List.iter
    (fun sem ->
      Alcotest.(check (list string))
        ("clean under " ^ Stepper.mechanism sem)
        []
        (codes
           (verify sem
              [
                record ~pid:0 ~vpn:16 ~npages:4 ();
                record ~pid:1 ~vpn:64 ~npages:8 ();
                record ~pid:0 ~vpn:16 ~npages:4 ();
              ])))
    Protocol.defaults

let test_protocol_up01 () =
  let sem = hier ~limit:256 () in
  let fs = verify sem [ record ~pid:0 ~vpn:0 ~npages:300 () ] in
  Alcotest.(check (list string)) "UP01" [ "UP01" ] (codes fs);
  Alcotest.(check (option int)) "line" (Some 1)
    (List.hd fs).Finding.line;
  (* Dedup: the same break again for the same pid is not re-reported;
     a different pid is. *)
  let fs =
    verify sem
      [
        record ~pid:0 ~vpn:0 ~npages:300 ();
        record ~pid:0 ~vpn:4096 ~npages:300 ();
        record ~pid:1 ~vpn:0 ~npages:300 ();
      ]
  in
  Alcotest.(check (list string)) "per-pid dedup" [ "UP01"; "UP01" ] (codes fs);
  (* Under intr the engine never pins more pages than its cache has
     lines, so UP01 needs a limit below the cache size; the wide buffer
     is still UP03. *)
  let intr entries = Stepper.Intr { entries; limit_pages = Some 256 } in
  Alcotest.(check (list string)) "intr limit below cache" [ "UP01" ]
    (codes (verify (intr 1024) [ record ~pid:0 ~vpn:0 ~npages:300 () ]));
  Alcotest.(check (list string)) "intr cache below limit" [ "UP03" ]
    (codes (verify (intr 8) [ record ~pid:0 ~vpn:0 ~npages:300 () ]))

let test_protocol_up02 () =
  let max_vpn = Utlb.Translation_table.max_vpn in
  let fs =
    verify (hier ())
      [ record ~pid:0 ~vpn:(max_vpn - 5) ~npages:16 () ]
  in
  Alcotest.(check (list string)) "UP02" [ "UP02" ] (codes fs);
  Alcotest.(check (list string)) "last entry is fine" []
    (codes (verify (hier ()) [ record ~pid:0 ~vpn:(max_vpn - 5) ~npages:6 () ]))

let test_protocol_up03 () =
  let sem = Stepper.Intr { entries = 1024; limit_pages = None } in
  let fs = verify sem [ record ~pid:0 ~vpn:0 ~npages:2000 () ] in
  Alcotest.(check (list string)) "UP03" [ "UP03" ] (codes fs);
  Alcotest.(check (list string)) "at capacity is fine" []
    (codes (verify sem [ record ~pid:0 ~vpn:0 ~npages:1024 () ]))

let test_protocol_up04 () =
  let sem = Stepper.Static { processes = 2; share = 4096 } in
  let fs =
    verify sem
      [
        record ~pid:0 ~vpn:0 ~npages:4 ();
        record ~pid:1 ~vpn:0 ~npages:4 ();
        record ~pid:2 ~vpn:0 ~npages:4 ();
      ]
  in
  Alcotest.(check (list string)) "pid overflow" [ "UP04" ] (codes fs);
  let fs = verify sem [ record ~pid:0 ~vpn:0 ~npages:5000 () ] in
  Alcotest.(check (list string)) "span overflow" [ "UP04" ] (codes fs)

let test_protocol_up05 () =
  let sem = hier ~prepin:64 ~limit:256 () in
  let fs = verify sem [ record ~pid:0 ~vpn:0 ~npages:250 () ] in
  Alcotest.(check (list string)) "UP05" [ "UP05" ] (codes fs);
  Alcotest.(check bool) "warning" true
    ((List.hd fs).Finding.severity = Finding.Warning);
  Alcotest.(check (list string)) "window fits" []
    (codes (verify sem [ record ~pid:0 ~vpn:0 ~npages:100 () ]))

let test_protocol_lattice () =
  let state = Protocol.init (hier ~limit:256 ()) in
  Alcotest.(check bool) "initially garbage" true
    (Protocol.page_state state ~pid:0 ~vpn:16 = Protocol.Garbage);
  let _ = Protocol.step state ~line:1 (record ~pid:0 ~vpn:16 ~npages:4 ()) in
  Alcotest.(check bool) "pinned after step" true
    (Protocol.page_state state ~pid:0 ~vpn:16 = Protocol.Pinned 1);
  Alcotest.(check (pair int int)) "interval" (4, 4)
    (Protocol.pinned_interval state ~pid:0);
  (* A capacity-straining record demotes the earlier span to a possible
     victim without touching its hashtable entry. *)
  let _ = Protocol.step state ~line:2 (record ~pid:0 ~vpn:512 ~npages:255 ()) in
  Alcotest.(check bool) "possible victim" true
    (Protocol.page_state state ~pid:0 ~vpn:16 = Protocol.Top);
  Alcotest.(check bool) "new span pinned" true
    (Protocol.page_state state ~pid:0 ~vpn:512 = Protocol.Pinned 1);
  (* The intr pigeonhole leaves the head of the span provably
     unpinned. *)
  let state =
    Protocol.init (Stepper.Intr { entries = 1024; limit_pages = None })
  in
  let _ = Protocol.step state ~line:1 (record ~pid:0 ~vpn:0 ~npages:1030 ()) in
  Alcotest.(check bool) "head unpinned" true
    (Protocol.page_state state ~pid:0 ~vpn:3 = Protocol.Unpinned);
  Alcotest.(check bool) "tail pinned" true
    (Protocol.page_state state ~pid:0 ~vpn:1029 = Protocol.Pinned 1)

(* A mechanism spec reaches the verifier through the registry's
   resolver, like every other checker and the simulator. *)
let test_protocol_of_mech () =
  let sem name params =
    Result.map Sim_driver.stepper (Sim_driver.Registry.resolve ~name ~params)
  in
  (match sem "utlb" [ ("limit-mb", "1") ] with
  | Ok (Stepper.Hier { limit_pages = Some 256; _ }) -> ()
  | _ -> Alcotest.fail "utlb limit-mb=1 should model as 256 pages");
  (match sem "UTLB" [] with
  | Ok (Stepper.Hier _) -> ()
  | _ -> Alcotest.fail "names are case-insensitive");
  (match sem "nonesuch" [] with
  | Error msg ->
    Alcotest.(check string) "wording" "unregistered mechanism \"nonesuch\"" msg
  | Ok _ -> Alcotest.fail "unknown mechanism must not model");
  List.iter
    (fun (name, params) ->
      match sem name params with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.failf "%s %s must not model" name
          (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) params)))
    [
      ("intr", [ ("entries", "lots") ]);
      ("utlb", [ ("prefetch", "0") ]);
      ("utlb", [ ("limit-mb", "-1") ]);
      ("intr", [ ("entries", "3") ]);
      ("per-process", [ ("processes", "0") ]);
    ]

let test_protocol_verify_file () =
  let path = Filename.temp_file "utlb_verify" ".trace" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "# comment\n0.000 0 16 4 S\nnot a record\n");
  (match Protocol.verify_file (hier ()) path with
  | Error e -> Alcotest.fail e
  | Ok fs ->
    Alcotest.(check (list string)) "UP00 for the bad line" [ "UP00" ]
      (codes fs);
    Alcotest.(check (option int)) "real line number" (Some 3)
      (List.hd fs).Finding.line);
  Sys.remove path;
  match Protocol.verify_file (hier ()) path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreadable file must be an Error"

let test_protocol_verify_grid () =
  let grid_text =
    "name racecheck\nseed 7\nworkloads water\n\
     mechanism utlb entries=1024,8192\nmechanism intr entries=1024\n"
  in
  match Utlb_exp.Grid.of_string ~name:"racecheck" grid_text with
  | Error e -> Alcotest.fail e
  | Ok grid ->
    Alcotest.(check (list string)) "shipped-style grid is clean" []
      (codes (Protocol.verify_grid grid))

(* {2 Admission rules against the engines}

   Stepper.admission is the only copy of the UP01-UP05 rules, so the
   engines are its reference: a "must" finding has to happen when the
   record runs through the engine it was judged against, and a record
   the rules pass must leave the engine within its limit. *)

let corpus_dir =
  if Sys.file_exists "verify" then "verify" else Filename.concat "test" "verify"

let corpus_packed conf =
  match Config_file.parse_file (Filename.concat corpus_dir conf) with
  | Ok (cfg, _) -> Config_file.packed cfg
  | Error e -> failwith e

let corpus_records trace =
  match
    In_channel.with_open_text
      (Filename.concat corpus_dir trace)
      Utlb_trace.Trace.load
  with
  | Ok t -> Array.to_list (Utlb_trace.Trace.records t)
  | Error e -> failwith e

(* A fresh engine on its own host, so the test can read the pin ledger
   after each lookup. *)
let engine ?sanitizer (Sim_driver.Packed ((module E), config)) =
  let host = Host_memory.create () in
  let e = E.create ~host ?sanitizer ~seed:7L config in
  ( host,
    fun ~pid ~vpn ~npages ->
      ignore (E.lookup e ~pid:(Pid.of_int pid) ~vpn ~npages) )

let unpinned_in host ~pid ~vpn ~npages =
  List.length
    (List.filter
       (fun v -> not (Host_memory.is_pinned host (Pid.of_int pid) ~vpn:v))
       (List.init npages (fun i -> vpn + i)))

let aborts f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* The rules' codes for one record, tracking the distinct pids seen. *)
let admit sem seen ~pid ~vpn ~npages =
  let known = List.mem pid !seen in
  let vs =
    Stepper.admission sem ~known ~distinct:(List.length !seen) ~pid
      (Stepper.request ~vpn ~npages ())
  in
  if not known then seen := pid :: !seen;
  List.map (fun (v : Stepper.violation) -> v.Stepper.code) vs

(* Each seeded corpus case, replayed through the engine of its conf:
   the last record carries the finding, and the engine shows it. *)
let test_admission_corpus () =
  let replay conf trace =
    let packed = corpus_packed conf in
    let sem = Sim_driver.stepper packed in
    let host, lookup = engine packed in
    let seen = ref [] in
    let last = ref [] in
    List.iter
      (fun (r : Record.t) ->
        let pid = Pid.to_int r.pid in
        last := admit sem seen ~pid ~vpn:r.vpn ~npages:r.npages;
        if not (List.mem "UP04" !last) then
          lookup ~pid ~vpn:r.vpn ~npages:r.npages)
      (corpus_records trace);
    (host, lookup, !last)
  in
  let host, _, codes = replay "up01.conf" "up01.trace" in
  Alcotest.(check (list string)) "up01 predicted" [ "UP01" ] codes;
  Alcotest.(check int) "up01 pins 300 pages over a 256-page limit" 300
    (Host_memory.pinned_pages host (Pid.of_int 0));
  let host, _, codes = replay "up03.conf" "up03.trace" in
  Alcotest.(check (list string)) "up03 predicted" [ "UP03" ] codes;
  Alcotest.(check int) "up03 unpins 976 pages of its own span" 976
    (unpinned_in host ~pid:0 ~vpn:0 ~npages:2000);
  let host, lookup = engine (corpus_packed "up03.conf") in
  lookup ~pid:0 ~vpn:0 ~npages:1024;
  Alcotest.(check int) "a 1024-page span unpins none" 0
    (unpinned_in host ~pid:0 ~vpn:0 ~npages:1024);
  let _, lookup, codes = replay "up04.conf" "up04.trace" in
  Alcotest.(check (list string)) "up04 predicted" [ "UP04" ] codes;
  Alcotest.(check bool) "up04's third pid aborts" true
    (aborts (fun () -> lookup ~pid:2 ~vpn:64 ~npages:4));
  let _, lookup = engine (corpus_packed "up04.conf") in
  Alcotest.(check bool) "a 5000-page span on a 4096-entry share aborts" true
    (aborts (fun () -> lookup ~pid:0 ~vpn:0 ~npages:5000))

(* Seeded hier and intr configs: every UP01 must leave its pid over the
   limit after the lookup, and a pid the rules never flagged (UP01 or
   UP05) must never end a lookup over it. *)
let test_admission_fuzz_limits () =
  let rng = Random.State.make [| 0xAD01 |] in
  let predicted = ref 0 and unflagged = ref 0 in
  for case = 1 to 600 do
    let associativity =
      List.nth
        Utlb.Ni_cache.[ Direct_nohash; Direct; Two_way; Four_way ]
        (Random.State.int rng 4)
    in
    let cache =
      {
        Utlb.Ni_cache.entries =
          Utlb.Ni_cache.ways associativity * (1 lsl Random.State.int rng 6);
        associativity;
      }
    in
    let limit = 1 + Random.State.int rng 48 in
    let packed =
      if Random.State.bool rng then
        Sim_driver.Packed
          ( (module Utlb.Hier_engine),
            {
              Utlb.Hier_engine.default_config with
              cache;
              prefetch = 1 + Random.State.int rng 4;
              prepin = 1 + Random.State.int rng 8;
              memory_limit_pages = Some limit;
            } )
      else
        Sim_driver.Packed
          ( (module Utlb.Intr_engine),
            { Utlb.Intr_engine.cache; memory_limit_pages = Some limit } )
    in
    let sem = Sim_driver.stepper packed in
    let sanitizer = Sanitizer.create ~mode:Sanitizer.Record () in
    let host, lookup = engine ~sanitizer packed in
    let seen = ref [] and flagged = ref [] in
    for _ = 1 to 30 do
      let pid = Random.State.int rng 3 in
      let npages =
        1
        +
        if Random.State.int rng 4 = 0 then Random.State.int rng (2 * limit)
        else Random.State.int rng 4
      in
      let vpn = Random.State.int rng 256 in
      let codes = admit sem seen ~pid ~vpn ~npages in
      lookup ~pid ~vpn ~npages;
      let pinned = Host_memory.pinned_pages host (Pid.of_int pid) in
      let tag =
        Printf.sprintf "case %d %s: pid %d, %d pages at %#x, limit %d"
          case (Stepper.mechanism sem) pid npages vpn limit
      in
      if List.mem "UP01" codes then begin
        incr predicted;
        if pinned <= limit then
          Alcotest.failf "%s: UP01 predicted but %d pages pinned" tag pinned
      end;
      if List.mem "UP01" codes || List.mem "UP05" codes then
        flagged := pid :: !flagged
      else if not (List.mem pid !flagged) then begin
        incr unflagged;
        if pinned > limit then
          Alcotest.failf "%s: unflagged pid ends with %d pages pinned" tag
            pinned
      end
    done;
    Alcotest.(check bool)
      (Printf.sprintf "case %d sanitizers clean" case)
      true
      (Sanitizer.is_clean sanitizer)
  done;
  Alcotest.(check bool) "UP01 exercised" true (!predicted > 100);
  Alcotest.(check bool) "unflagged lookups exercised" true (!unflagged > 1000)

(* Seeded per-process configs: the engine aborts exactly when UP04 is
   predicted, checked up to the first abort. *)
let test_admission_fuzz_tables () =
  let rng = Random.State.make [| 0xAD04 |] in
  let aborted_cases = ref 0 in
  for case = 1 to 400 do
    let processes = 1 + Random.State.int rng 4 in
    let share = 1 + Random.State.int rng 32 in
    let packed =
      Sim_driver.Packed
        ( (module Utlb.Pp_engine),
          {
            Utlb.Pp_engine.sram_budget_entries =
              (share * processes) + Random.State.int rng processes;
            processes;
            policy = Utlb.Replacement.Lru;
          } )
    in
    let sem = Sim_driver.stepper packed in
    let _, lookup = engine packed in
    let seen = ref [] in
    let rec go n =
      if n > 0 then begin
        let pid = Random.State.int rng (processes + 2) in
        let npages = 1 + Random.State.int rng (share + (share / 2) + 1) in
        let vpn = Random.State.int rng 256 in
        let predicted = List.mem "UP04" (admit sem seen ~pid ~vpn ~npages) in
        let aborted = aborts (fun () -> lookup ~pid ~vpn ~npages) in
        Alcotest.(check bool)
          (Printf.sprintf
             "case %d: %d tables of %d, pid %d, %d pages: aborts iff UP04"
             case processes share pid npages)
          predicted aborted;
        if aborted then incr aborted_cases else go (n - 1)
      end
    in
    go 30
  done;
  Alcotest.(check bool) "aborts exercised" true (!aborted_cases > 100)

(* {2 Event parsing and the timeline reader} *)

let test_event_roundtrip () =
  List.iter
    (fun kind ->
      let ev =
        { Event.seq = 3; at_us = 1234.567; kind; pid = 2; vpn = 0x1a3;
          count = 7 }
      in
      let text = Format.asprintf "%a" Event.pp ev in
      match Event.of_string ~seq:3 text with
      | Error e -> Alcotest.fail (Event.kind_name kind ^ ": " ^ e)
      | Ok ev' -> Alcotest.(check bool) (Event.kind_name kind) true (ev = ev'))
    Event.all_kinds;
  (* vpn = -1 / count = 0 round-trip through field omission. *)
  let ev =
    { Event.seq = 0; at_us = 0.5; kind = Event.Interrupt; pid = 4; vpn = -1;
      count = 0 }
  in
  (match Event.of_string (Format.asprintf "%a" Event.pp ev) with
  | Ok ev' -> Alcotest.(check bool) "omitted fields" true (ev = ev')
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Event.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("should not parse: " ^ bad))
    [
      "";
      "1.0";
      "x host/lookup pid=1";
      "1.0 host/nonesuch pid=1";
      "1.0 ni/lookup pid=1";
      "1.0 host/lookup";
      "1.0 host/lookup pid=１";
      "1.0 host/lookup pid=1 bogus=2";
    ]

let test_reader_sections () =
  let text =
    "# timeline smoke\n\
     # cell 0 water/utlb[entries=1024]\n\
     \     0.000 host/lookup pid=0 vpn=0x10 n=2\n\
     \     0.500 ni/ni_miss pid=0 vpn=0x10\n\
     garbage line\n\
     # cell 1 water/intr[entries=1024]\n\
     \     0.000 host/lookup pid=0 vpn=0x10 n=2\n\
     12 event(s), 0 dropped\n"
  in
  let t = Reader.of_string text in
  Alcotest.(check int) "two sections" 2 (List.length t.Reader.sections);
  let s0 = List.nth t.Reader.sections 0 in
  Alcotest.(check string) "label" "0 water/utlb[entries=1024]"
    s0.Reader.label;
  Alcotest.(check int) "events in cell 0" 2 (List.length s0.Reader.events);
  Alcotest.(check (list int)) "line numbers" [ 3; 4 ]
    (List.map fst s0.Reader.events);
  Alcotest.(check int) "one parse error" 1 (List.length t.Reader.errors);
  Alcotest.(check int) "error line" 5 (fst (List.hd t.Reader.errors));
  Alcotest.(check int) "all events" 3 (List.length (Reader.events t));
  (* seq is re-assigned from whole-file order. *)
  Alcotest.(check (list int)) "seq order" [ 0; 1; 2 ]
    (List.map (fun (e : Event.t) -> e.Event.seq) (Reader.events t))

(* {2 Happens-before race detector} *)

let ev ?(pid = 1) ?(vpn = -1) ?(count = 0) ~at kind =
  { Event.seq = 0; at_us = at; kind; pid; vpn; count }

let analyze events = Hb.analyze_events (List.mapi (fun i e -> (i + 1, e)) events)

let test_hb_up10 () =
  let fs =
    analyze
      [
        ev ~at:0.0 ~vpn:0x100 ~count:2 Event.Lookup;
        ev ~at:1.0 ~vpn:0x100 Event.Ni_hit;
        ev ~at:2.0 ~vpn:0x100 ~count:1 Event.Unpin;
      ]
  in
  Alcotest.(check (list string)) "UP10" [ "UP10" ] (codes fs);
  Alcotest.(check (option int)) "anchored at the unpin" (Some 3)
    (List.hd fs).Finding.line

let test_hb_up11 () =
  let fs =
    analyze
      [
        ev ~at:0.0 ~vpn:0x100 ~count:1 Event.Lookup;
        ev ~at:1.0 ~vpn:0x100 ~count:1 Event.Fetch;
        ev ~at:2.0 ~vpn:0x100 ~count:1 Event.Pin;
      ]
  in
  Alcotest.(check (list string)) "UP11" [ "UP11" ] (codes fs)

let test_hb_ordered () =
  (* The interrupt orders the kernel after all NI activity; the next
     lookup of a pid observes the NI work done on its behalf. *)
  Alcotest.(check (list string)) "interrupt edge" []
    (codes
       (analyze
          [
            ev ~at:0.0 ~vpn:0x100 ~count:1 Event.Lookup;
            ev ~at:1.0 ~vpn:0x100 Event.Ni_miss;
            ev ~at:2.0 Event.Interrupt;
            ev ~at:3.0 ~vpn:0x100 ~count:1 Event.Pin;
            ev ~at:4.0 ~vpn:0x100 Event.Ni_hit;
            ev ~at:5.0 Event.Interrupt;
            ev ~at:6.0 ~vpn:0x100 ~count:1 Event.Unpin;
          ]));
  Alcotest.(check (list string)) "lookup-completion edge" []
    (codes
       (analyze
          [
            ev ~at:0.0 ~vpn:0x100 ~count:1 Event.Lookup;
            ev ~at:1.0 ~vpn:0x100 Event.Ni_hit;
            ev ~at:2.0 ~vpn:0x200 ~count:1 Event.Lookup;
            ev ~at:3.0 ~vpn:0x100 ~count:1 Event.Unpin;
          ]));
  (* Conflicts on different pages or different pids are no conflict at
     all. *)
  Alcotest.(check (list string)) "distinct variables" []
    (codes
       (analyze
          [
            ev ~at:0.0 ~vpn:0x100 ~count:1 Event.Lookup;
            ev ~at:1.0 ~vpn:0x100 Event.Ni_hit;
            ev ~at:2.0 ~vpn:0x101 ~count:1 Event.Unpin;
            ev ~at:3.0 ~pid:2 ~vpn:0x100 ~count:1 Event.Unpin;
          ]))

let test_hb_up13 () =
  let fs =
    analyze
      [ ev ~at:5.0 ~vpn:0x100 Event.Ni_miss; ev ~at:1.0 ~vpn:0x101 Event.Ni_hit ]
  in
  Alcotest.(check (list string)) "UP13" [ "UP13" ] (codes fs);
  (* Different actors may interleave times freely. *)
  Alcotest.(check (list string)) "cross-actor regress is fine" []
    (codes
       (analyze
          [ ev ~at:5.0 ~vpn:0x100 Event.Ni_miss; ev ~at:1.0 Event.Interrupt ]))

let test_hb_up12 () =
  let t = Reader.of_string "not an event\n" in
  Alcotest.(check (list string)) "UP12" [ "UP12" ] (codes (Hb.analyze t))

(* {2 LINTS.md sync} *)

let lints_md_rows () =
  (* Cwd is _build/default/test under `dune runtest`, the workspace
     root under `dune exec`. *)
  let path =
    List.find Sys.file_exists [ "../LINTS.md"; "LINTS.md" ]
  in
  let text = In_channel.with_open_text path In_channel.input_all in
  List.filter_map
    (fun line ->
      match String.split_on_char '|' (String.trim line) with
      | [ ""; code; desc; "" ] ->
        (* Table rows whose first cell looks like a code; the header
           row ("Code") and the separator row ("----") do not. *)
        let code = String.trim code and desc = String.trim desc in
        if String.length code >= 2 && code.[0] = 'U' then Some (code, desc)
        else None
      | _ -> None)
    (String.split_on_char '\n' text)

let test_lints_md_sync () =
  let rows = lints_md_rows () in
  (* Every catalogued code appears in LINTS.md with the same
     description... *)
  List.iter
    (fun (code, desc) ->
      match List.assoc_opt code rows with
      | None -> Alcotest.fail (code ^ " missing from LINTS.md")
      | Some d -> Alcotest.(check string) (code ^ " description") desc d)
    Catalogue.all;
  (* ... and LINTS.md documents no code the catalogue does not have. *)
  List.iter
    (fun (code, _) ->
      Alcotest.(check bool) (code ^ " known to the catalogue") true
        (Catalogue.mem code))
    rows;
  Alcotest.(check int) "same cardinality" (List.length Catalogue.all)
    (List.length rows)

let suite =
  [
    Alcotest.test_case "catalogue: codes unique" `Quick test_catalogue_unique;
    Alcotest.test_case "catalogue: describe/mem" `Quick test_catalogue_describe;
    Alcotest.test_case "catalogue: all families" `Quick test_catalogue_families;
    Alcotest.test_case "finding: by_severity deterministic" `Quick
      test_by_severity_deterministic;
    Alcotest.test_case "finding: pp with line" `Quick test_finding_pp_line;
    Alcotest.test_case "finding: json" `Quick test_finding_json;
    Alcotest.test_case "config: duplicate keys" `Quick
      test_config_duplicate_keys;
    Alcotest.test_case "config: whitespace" `Quick test_config_whitespace;
    Alcotest.test_case "config: crlf" `Quick test_config_crlf;
    Alcotest.test_case "config: empty file" `Quick test_config_empty;
    Alcotest.test_case "protocol: clean defaults" `Quick test_protocol_clean;
    Alcotest.test_case "protocol: UP01 limit break" `Quick test_protocol_up01;
    Alcotest.test_case "protocol: UP02 garbage frame" `Quick
      test_protocol_up02;
    Alcotest.test_case "protocol: UP03 pigeonhole" `Quick test_protocol_up03;
    Alcotest.test_case "protocol: UP04 table overflow" `Quick
      test_protocol_up04;
    Alcotest.test_case "protocol: UP05 prepin window" `Quick
      test_protocol_up05;
    Alcotest.test_case "protocol: lattice introspection" `Quick
      test_protocol_lattice;
    Alcotest.test_case "protocol: of_mech" `Quick test_protocol_of_mech;
    Alcotest.test_case "protocol: verify_file" `Quick test_protocol_verify_file;
    Alcotest.test_case "protocol: verify_grid" `Quick test_protocol_verify_grid;
    Alcotest.test_case "admission: corpus breaks in the engine" `Quick
      test_admission_corpus;
    Alcotest.test_case "admission: hier/intr fuzz vs engines" `Quick
      test_admission_fuzz_limits;
    Alcotest.test_case "admission: per-process fuzz vs engine" `Quick
      test_admission_fuzz_tables;
    Alcotest.test_case "event: of_string roundtrip" `Quick
      test_event_roundtrip;
    Alcotest.test_case "reader: sections" `Quick test_reader_sections;
    Alcotest.test_case "hb: UP10 use-after-unpin" `Quick test_hb_up10;
    Alcotest.test_case "hb: UP11 fetch race" `Quick test_hb_up11;
    Alcotest.test_case "hb: ordered traces are clean" `Quick test_hb_ordered;
    Alcotest.test_case "hb: UP13 time regression" `Quick test_hb_up13;
    Alcotest.test_case "hb: UP12 parse error" `Quick test_hb_up12;
    Alcotest.test_case "LINTS.md in sync" `Quick test_lints_md_sync;
  ]
