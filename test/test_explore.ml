(* The utlbcheck explore pass: clean certificates and DPOR effectiveness
   for all five registered engines at the default scope, deterministic
   detection of each seeded protocol mutant (UP20-UP23), rediscovery of
   the UP01-05 corpus by exhaustive search with Protocol agreeing on
   every minimized counterexample, a seeded random-walk differential
   fuzz against the static verifier, and the UP2x catalogue entries. *)

module Explore = Utlb_check.Explore
module Stepper = Utlb.Stepper
module Protocol = Utlb_check.Protocol
module Catalogue = Utlb_check.Catalogue
module Config_file = Utlb_check.Config_file
module Finding = Utlb_check.Finding
module Record = Utlb_trace.Record

let codes fs =
  List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.code) fs)

let engines =
  [
    ("utlb", Stepper.Hier { prepin = 1; limit_pages = None; backstop = Stepper.No_backstop });
    ("intr", Stepper.Intr { entries = 8192; limit_pages = None });
    ("per-process", Stepper.Static { processes = 5; share = 1638 });
    ("victima", Stepper.Hier { prepin = 1; limit_pages = None; backstop = Stepper.Victim_store });
    ("utopia", Stepper.Hier { prepin = 1; limit_pages = None; backstop = Stepper.Restseg });
  ]

(* {2 Clean engines at the default scope} *)

let test_clean_engines () =
  List.iter
    (fun (name, sem) ->
      let r = Explore.explore ~label:name sem in
      Alcotest.(check (list string)) (name ^ " clean") [] (codes r.Explore.findings);
      Alcotest.(check string)
        (name ^ " exhaustive") "exhaustive"
        (Explore.truncation_label r.Explore.stats.Explore.truncation);
      let ratio = Explore.prune_ratio r.Explore.stats in
      Alcotest.(check bool)
        (Printf.sprintf "%s DPOR prunes >= 50%% (got %.1f%%)" name (100. *. ratio))
        true (ratio >= 0.5))
    engines

(* {2 Mutant detection} *)

(* Each seeded mutant must be caught deterministically with its designed
   code. Blocking-evict only bites when the cache is small enough to
   fill; early-unpin explodes the interleaving space, so it runs at the
   smallest scope that still exhibits the race. *)
let mutant_cases =
  [
    ( Stepper.Blocking_evict,
      "UP20",
      { Stepper.default_scope with Stepper.mutant = Some Stepper.Blocking_evict; sets = 2 } );
    ( Stepper.Leak_unpin,
      "UP21",
      { Stepper.default_scope with Stepper.mutant = Some Stepper.Leak_unpin } );
    ( Stepper.No_shootdown,
      "UP22",
      { Stepper.default_scope with Stepper.mutant = Some Stepper.No_shootdown } );
    ( Stepper.Early_unpin,
      "UP23",
      {
        Stepper.default_scope with
        Stepper.mutant = Some Stepper.Early_unpin;
        procs = 1;
        pages = 1;
        requests = 1;
      } );
  ]

let test_mutants () =
  List.iter
    (fun (m, expected, scope) ->
      let sem = Stepper.Intr { entries = 8192; limit_pages = None } in
      let r =
        Explore.explore
          ~config:{ Explore.default_config with Explore.scope }
          ~label:(Stepper.mutant_name m) sem
      in
      Alcotest.(check bool)
        (Stepper.mutant_name m ^ " finds " ^ expected)
        true
        (List.mem expected (codes r.Explore.findings));
      (* Every finding ships a counterexample with a non-empty schedule. *)
      Alcotest.(check int)
        (Stepper.mutant_name m ^ " one ce per finding")
        (List.length r.Explore.findings)
        (List.length r.Explore.counterexamples);
      List.iter
        (fun (ce : Explore.counterexample) ->
          Alcotest.(check bool) "schedule non-empty" true (ce.Explore.schedule <> []))
        r.Explore.counterexamples)
    mutant_cases

(* {2 Determinism} *)

let test_determinism () =
  let scope =
    { Stepper.default_scope with Stepper.mutant = Some Stepper.Leak_unpin }
  in
  let run () =
    Explore.explore
      ~config:{ Explore.default_config with Explore.scope }
      ~label:"det"
      (Stepper.Hier { prepin = 1; limit_pages = None; backstop = Stepper.No_backstop })
  in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "same findings" (codes a.Explore.findings)
    (codes b.Explore.findings);
  Alcotest.(check int) "same states" a.Explore.stats.Explore.states
    b.Explore.stats.Explore.states;
  Alcotest.(check int) "same transitions" a.Explore.stats.Explore.transitions
    b.Explore.stats.Explore.transitions;
  List.iter2
    (fun (x : Explore.counterexample) (y : Explore.counterexample) ->
      Alcotest.(check (list string)) "same schedule" x.Explore.schedule y.Explore.schedule;
      Alcotest.(check (list string)) "same records"
        (List.map Record.to_string x.Explore.records)
        (List.map Record.to_string y.Explore.records))
    a.Explore.counterexamples b.Explore.counterexamples

(* {2 Corpus rediscovery + counterexample agreement} *)

let load_records path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | s ->
            let t = String.trim s in
            if t = "" || t.[0] = '#' then go acc
            else (
              match Record.of_string t with
              | Ok r -> go (r :: acc)
              | Error e -> failwith e)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* dune runtest runs from the test directory; dune exec from the repo
   root. Resolve the corpus relative to whichever exists. *)
let corpus_dir =
  if Sys.file_exists "verify" then "verify" else Filename.concat "test" "verify"

let corpus_semantics conf =
  match conf with
  | Some c -> (
      match Config_file.parse_file (Filename.concat corpus_dir c) with
      | Ok (cfg, _) -> Utlb.Sim_driver.stepper (Config_file.packed cfg)
      | Error e -> failwith e)
  | None -> List.hd Protocol.defaults

let test_corpus_rediscovery () =
  List.iter
    (fun (name, conf, trace, expected) ->
      let records = load_records (Filename.concat corpus_dir trace) in
      let sem = corpus_semantics conf in
      let scope =
        {
          Stepper.default_scope with
          Stepper.program = Some (Explore.program_of_records records);
          sets = 64;
        }
      in
      let r =
        Explore.explore
          ~config:{ Explore.default_config with Explore.scope }
          ~label:name sem
      in
      Alcotest.(check bool)
        (name ^ " rediscovers " ^ expected)
        true
        (List.mem expected (codes r.Explore.findings));
      Alcotest.(check string)
        (name ^ " exhaustive") "exhaustive"
        (Explore.truncation_label r.Explore.stats.Explore.truncation);
      (* The static verifier agrees on every minimized UP0x
         counterexample: re-checking its records flags the same code. *)
      List.iter
        (fun (ce : Explore.counterexample) ->
          let fs =
            Protocol.verify_records sem
              (List.mapi (fun i rec_ -> (i + 1, rec_)) ce.Explore.records)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s ce %s re-verifies" name ce.Explore.code)
            true
            (List.mem ce.Explore.code (codes fs)))
        r.Explore.counterexamples)
    [
      ("up01", Some "up01.conf", "up01.trace", "UP01");
      ("up02", None, "up02.trace", "UP02");
      ("up03", Some "up03.conf", "up03.trace", "UP03");
      ("up04", Some "up04.conf", "up04.trace", "UP04");
      ("up05", Some "up05.conf", "up05.trace", "UP05");
    ]

(* {2 Differential fuzz: Stepper vs Protocol} *)

(* Seeded random traces explored in trace mode must admit exactly the
   UP0x codes the static verifier reports, and never a spurious UP2x.
   Both run the same admission rules on the same semantics (the rules
   themselves are checked against the engines in test_verify.ml), so
   this holds the explorer's trace-mode bookkeeping — issue order,
   distinct-pid tracking, per-(code, pid) findings — to the
   verifier's, and shows the honest engines raise no race. *)
let test_fuzz_differential () =
  let rng = Random.State.make [| 0x5EED |] in
  for case = 1 to 40 do
    let nrec = 1 + Random.State.int rng 5 in
    let records =
      List.init nrec (fun i ->
          let pid = Random.State.int rng 3 in
          let vpn =
            if Random.State.int rng 8 = 0 then 0xffffe
            else Random.State.int rng 4
          in
          let npages =
            1
            +
            if Random.State.int rng 4 = 0 then Random.State.int rng 40
            else Random.State.int rng 3
          in
          Record.make ~time_us:(float_of_int i) ~pid:(Utlb_mem.Pid.of_int pid)
            ~vpn ~npages
            ~op:(if Random.State.int rng 2 = 0 then Record.Send else Record.Fetch))
    in
    let sems =
      [
        Stepper.Hier
          { prepin = 4; limit_pages = Some 16; backstop = Stepper.No_backstop };
        Stepper.Intr { entries = 8; limit_pages = Some 16 };
        Stepper.Intr { entries = 32; limit_pages = Some 16 };
        Stepper.Static { processes = 2; share = 8 };
        Stepper.Hier
          { prepin = 4; limit_pages = Some 16; backstop = Stepper.Victim_store };
        Stepper.Hier
          { prepin = 4; limit_pages = Some 16; backstop = Stepper.Restseg };
      ]
    in
    List.iter
      (fun sem ->
        let scope =
          {
            Stepper.default_scope with
            Stepper.program = Some (Explore.program_of_records records);
            sets = 256;
            page_cap = 2;
          }
        in
        let r =
          Explore.explore
            ~config:
              { Explore.default_config with Explore.scope; Explore.budget = 500_000 }
            sem
        in
        let up0x, up2x =
          List.partition (fun c -> c < "UP20") (codes r.Explore.findings)
        in
        let pf =
          Protocol.verify_records sem
            (List.mapi (fun i rec_ -> (i + 1, rec_)) records)
        in
        let tag =
          Printf.sprintf "case %d %s" case (Stepper.mechanism sem)
        in
        Alcotest.(check (list string)) (tag ^ " UP0x agree") (codes pf) up0x;
        Alcotest.(check (list string)) (tag ^ " no spurious UP2x") [] up2x)
      sems
  done

(* {2 Catalogue coverage} *)

let test_catalogue_up2x () =
  Alcotest.(check int) "four exploration codes" 4
    (List.length Catalogue.exploration);
  List.iter
    (fun code ->
      Alcotest.(check bool) (code ^ " catalogued") true (Catalogue.mem code);
      Alcotest.(check bool)
        (code ^ " described") true
        (Catalogue.describe code <> None))
    [ "UP20"; "UP21"; "UP22"; "UP23" ]

(* {2 Counterexample trace format} *)

let test_counterexample_lines () =
  let scope =
    {
      Stepper.default_scope with
      Stepper.mutant = Some Stepper.Early_unpin;
      procs = 1;
      pages = 1;
      requests = 1;
    }
  in
  let r =
    Explore.explore
      ~config:{ Explore.default_config with Explore.scope }
      ~label:"ce"
      (Stepper.Hier { prepin = 1; limit_pages = None; backstop = Stepper.No_backstop })
  in
  Alcotest.(check bool) "found UP23" true
    (List.mem "UP23" (codes r.Explore.findings));
  List.iter
    (fun (ce : Explore.counterexample) ->
      let lines = Explore.counterexample_lines r ce in
      (* Every non-comment line is a loadable trace record; comments
         carry the schedule. *)
      let parsed =
        List.filter_map
          (fun l ->
            let t = String.trim l in
            if t = "" || t.[0] = '#' then None
            else
              match Record.of_string t with
              | Ok rec_ -> Some rec_
              | Error e -> failwith e)
          lines
      in
      Alcotest.(check int)
        ("ce " ^ ce.Explore.code ^ " records round-trip")
        (List.length ce.Explore.records)
        (List.length parsed);
      Alcotest.(check bool) "header present" true
        (List.exists (fun l -> String.length l > 0 && l.[0] = '#') lines))
    r.Explore.counterexamples

let suite =
  [
    Alcotest.test_case "clean engines at default scope" `Slow test_clean_engines;
    Alcotest.test_case "mutants caught with designed codes" `Slow test_mutants;
    Alcotest.test_case "exploration is deterministic" `Slow test_determinism;
    Alcotest.test_case "corpus rediscovered exhaustively" `Slow
      test_corpus_rediscovery;
    Alcotest.test_case "differential fuzz vs verifier" `Slow
      test_fuzz_differential;
    Alcotest.test_case "UP2x catalogued" `Quick test_catalogue_up2x;
    Alcotest.test_case "counterexamples are trace files" `Quick
      test_counterexample_lines;
  ]
