(* lib/obs: the event sink, exporters, metrics registry, and the
   ?obs scope wiring through engines, the driver, and the campaign
   runner. *)

module Event = Utlb_obs.Event
module Sink = Utlb_obs.Trace_sink
module Export = Utlb_obs.Export
module Metrics = Utlb_obs.Metrics
module Scope = Utlb_obs.Scope
module Workloads = Utlb_trace.Workloads
module Grid = Utlb_exp.Grid
module Runner = Utlb_exp.Runner
open Utlb

let seed = 42L

let tiny name factor =
  let scaled = Workloads.scaled (Option.get (Workloads.find name)) ~factor in
  Workloads.custom
    ~name:(Printf.sprintf "%s@%g" name factor)
    ~generate:scaled.Workloads.generate ()

(* --- Trace sink ----------------------------------------------------- *)

let test_ring_drops_keep_counts () =
  let sink = Sink.create ~capacity:8 () in
  for i = 1 to 20 do
    Sink.emit sink ~at_us:(float_of_int i) ~kind:Event.Lookup ~pid:0
      ~count:2 ()
  done;
  Alcotest.(check int) "emitted" 20 (Sink.emitted sink);
  Alcotest.(check int) "retained" 8 (Sink.retained sink);
  Alcotest.(check int) "dropped" 12 (Sink.dropped sink);
  (* Whole-run accounting survives the drops. *)
  Alcotest.(check int) "kind count" 20 (Sink.kind_count sink Event.Lookup);
  Alcotest.(check int) "kind total" 40 (Sink.kind_total sink Event.Lookup);
  (* The ring retains the newest events, oldest first. *)
  let seqs = List.map (fun (e : Event.t) -> e.Event.seq) (Sink.events sink) in
  Alcotest.(check (list int)) "newest retained"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    seqs

let test_clear () =
  let sink = Sink.create ~capacity:4 () in
  Sink.emit sink ~at_us:1.0 ~kind:Event.Pin ~pid:1 ~count:3 ();
  Sink.clear sink;
  Alcotest.(check int) "emitted" 0 (Sink.emitted sink);
  Alcotest.(check int) "kind count" 0 (Sink.kind_count sink Event.Pin);
  Alcotest.(check int) "kind total" 0 (Sink.kind_total sink Event.Pin)

(* --- Exporters ------------------------------------------------------ *)

let test_span_durations () =
  let sink = Sink.create () in
  Sink.emit sink ~at_us:10.0 ~kind:Event.Dma_fetch_start ~pid:1 ~count:4 ();
  Sink.emit sink ~at_us:12.0 ~kind:Event.Bus_start ~pid:2 ();
  Sink.emit sink ~at_us:25.0 ~kind:Event.Dma_fetch_end ~pid:1 ~count:4 ();
  Sink.emit sink ~at_us:13.5 ~kind:Event.Bus_end ~pid:2 ();
  (* Spans match per (pid, span); an unmatched end is skipped. *)
  Sink.emit sink ~at_us:99.0 ~kind:Event.Bus_end ~pid:3 ();
  Alcotest.(check (list (pair string (float 1e-9))))
    "durations"
    [ ("dma_fetch_start", 15.0); ("bus_start", 1.5) ]
    (List.map
       (fun (k, d) -> (Event.kind_name k, d))
       (Export.span_durations sink))

let test_chrome_json_shape () =
  let sink = Sink.create () in
  Sink.emit sink ~at_us:1.0 ~kind:Event.Lookup ~pid:0 ~vpn:0x42 ();
  Sink.emit sink ~at_us:2.0 ~kind:Event.Dma_fetch_start ~pid:0 ~count:2 ();
  Sink.emit sink ~at_us:5.0 ~kind:Event.Dma_fetch_end ~pid:0 ~count:2 ();
  let json = Format.asprintf "%a" Export.chrome_json sink in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "object" true (String.length json > 2 && json.[0] = '{');
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "has %s" needle) true
        (contains needle))
    [
      "\"traceEvents\"";
      "\"otherData\"";
      (* One metadata record per (pid, component) lane. *)
      "thread_name";
      (* The lookup instant is thread-scoped. *)
      "\"ph\":\"i\"";
      (* The DMA fetch exports as a begin/end span pair. *)
      "\"ph\":\"B\"";
      "\"ph\":\"E\"";
      "\"lookup\"";
    ]

let test_timeline_limit_and_trailer () =
  let sink = Sink.create () in
  for i = 1 to 5 do
    Sink.emit sink ~at_us:(float_of_int i) ~kind:Event.Ni_hit ~pid:0 ()
  done;
  let text = Format.asprintf "%a" (Export.timeline ~limit:2) sink in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  (* 2 event lines plus the whole-run trailer. *)
  Alcotest.(check int) "line count" 3 (List.length lines);
  Alcotest.(check bool) "trailer totals" true
    (List.exists
       (fun l ->
         let nl = String.length "5 event(s)" in
         String.length l >= nl && String.sub l 0 nl = "5 event(s)")
       lines)

(* --- Scope ---------------------------------------------------------- *)

let test_scope_noop_paths () =
  (* A scope with neither sink nor metrics is a universal no-op. *)
  let scope = Scope.create () in
  Scope.tick scope ~pid:1 ~vpn:0 ~npages:1 ();
  Scope.emit scope Event.Ni_hit;
  Scope.finish scope;
  Alcotest.(check int) "kinds still counted" 1
    (Scope.kind_count scope Event.Ni_hit);
  Alcotest.(check bool) "no sink" true (Scope.sink scope = None)

let test_scope_clock_advances_by_cost () =
  let scope = Scope.create ~cost_of:Obs_cost.default () in
  let t_start = Scope.now_us scope in
  Scope.tick scope ~pid:0 ~vpn:Utlb_obs.Probe.no_vpn
    ~npages:Utlb_obs.Probe.no_count ();
  let t0 = Scope.now_us scope in
  Scope.emit scope Event.Ni_hit;
  Alcotest.(check (float 1e-9)) "hit cost"
    (Cost_model.ni_hit_us Cost_model.default)
    (Scope.now_us scope -. t0);
  let t1 = Scope.now_us scope in
  Scope.emit scope ~count:4 Event.Fetch;
  Alcotest.(check (float 1e-9)) "fetch cost scales"
    (Cost_model.dma_us Cost_model.default ~entries:4)
    (Scope.now_us scope -. t1);
  Scope.finish scope;
  (* The tick's Lookup event is costed too, so the whole clock advance
     since creation equals the attributed total. *)
  Alcotest.(check (float 1e-9)) "total cost attributed"
    (Scope.now_us scope -. t_start)
    (Scope.total_cost scope);
  (* by_cost ranks the costlier DMA fetch first. *)
  match Scope.by_cost scope with
  | (k, _, _) :: _ -> Alcotest.(check string) "costliest" "fetch" (Event.kind_name k)
  | [] -> Alcotest.fail "by_cost empty"

(* --- Event <-> Report reconciliation -------------------------------- *)

let reconcile name mechanism =
  let spec = tiny "fft" 0.004 in
  let sink = Sink.create () in
  let registry = Metrics.create () in
  let obs =
    Scope.create ~sink ~metrics:registry ~cost_of:Obs_cost.default ()
  in
  let r = Sim_driver.run_workload ~seed ~obs mechanism spec in
  let check what expected kind =
    Alcotest.(check int)
      (Printf.sprintf "%s: %s" name what)
      expected (Sink.kind_count sink kind)
  in
  let check_total what expected kind =
    Alcotest.(check int)
      (Printf.sprintf "%s: %s" name what)
      expected (Sink.kind_total sink kind)
  in
  check "lookups" r.Report.lookups Event.Lookup;
  check "check misses" r.Report.check_misses Event.Check_miss;
  check "NI page misses" r.Report.ni_page_misses Event.Ni_miss;
  check "NI page hits"
    (r.Report.ni_page_accesses - r.Report.ni_page_misses)
    Event.Ni_hit;
  check "pin calls" r.Report.pin_calls Event.Pin;
  check_total "pages pinned" r.Report.pages_pinned Event.Pin;
  check "unpin calls" r.Report.unpin_calls Event.Unpin;
  check_total "pages unpinned" r.Report.pages_unpinned Event.Unpin;
  check "interrupts" r.Report.interrupts Event.Interrupt;
  check_total "entries fetched" r.Report.entries_fetched Event.Fetch;
  (* The metric registry mirrors the sink's drop-proof counters. *)
  (match Metrics.find registry "host/lookup" with
  | Some (Metrics.Counter c) ->
    Alcotest.(check int)
      (name ^ ": metric lookups")
      r.Report.lookups
      (Utlb_sim.Stats.Counter.value c)
  | _ -> Alcotest.fail "host/lookup missing");
  match Metrics.find registry "host/lookup_us" with
  | Some (Metrics.Histogram h) ->
    Alcotest.(check int)
      (name ^ ": one latency sample per lookup")
      r.Report.lookups
      (Utlb_sim.Stats.Histogram.count h)
  | _ -> Alcotest.fail "host/lookup_us missing"

let test_reconcile_hier () =
  reconcile "utlb"
    (Sim_driver.Packed
       ( (module Hier_engine),
         {
           Hier_engine.default_config with
           cache = { Ni_cache.entries = 1024; associativity = Ni_cache.Direct };
           prefetch = 4;
         } ))

let test_reconcile_intr () =
  reconcile "intr"
    (Sim_driver.Packed
       ( (module Intr_engine),
         {
           Intr_engine.cache =
             { Ni_cache.entries = 1024; associativity = Ni_cache.Direct };
           memory_limit_pages = Some 64;
         } ))

let test_reconcile_pp () =
  reconcile "per-process"
    (Sim_driver.Packed
       ( (module Pp_engine),
         {
           Pp_engine.sram_budget_entries = 4096;
           processes = 5;
           policy = Replacement.Lru;
         } ))

(* --- Metrics snapshots ---------------------------------------------- *)

let feed registry values =
  let c = Metrics.counter registry "host/c" in
  let s = Metrics.summary registry "host/s" in
  let h = Metrics.histogram registry "host/h" ~bucket_width:2.0 ~buckets:8 in
  List.iter
    (fun v ->
      Utlb_sim.Stats.Counter.incr c;
      Utlb_sim.Stats.Summary.observe s v;
      Utlb_sim.Stats.Histogram.observe h v)
    values

let close_snapshots a b =
  Alcotest.(check int) "same size" (List.length a) (List.length b);
  List.iter2
    (fun (na, va) (nb, vb) ->
      Alcotest.(check string) "name" na nb;
      match (va, vb) with
      | Metrics.Snapshot.Counter x, Metrics.Snapshot.Counter y ->
        Alcotest.(check int) na x y
      | Metrics.Snapshot.Histogram h1, Metrics.Snapshot.Histogram h2 ->
        Alcotest.(check (array int)) na h1.counts h2.counts
      | Metrics.Snapshot.Summary s1, Metrics.Snapshot.Summary s2 ->
        Alcotest.(check int) (na ^ " count") s1.count s2.count;
        Alcotest.(check (float 1e-9)) (na ^ " total") s1.total s2.total;
        Alcotest.(check (float 1e-9)) (na ^ " mean") s1.mean s2.mean;
        Alcotest.(check (float 1e-6)) (na ^ " m2") s1.m2 s2.m2
      | _ -> Alcotest.fail (na ^ ": kind mismatch"))
    a b

let test_snapshot_diff_merge_roundtrip () =
  let registry = Metrics.create () in
  feed registry [ 1.0; 3.0; 4.5 ];
  let older = Metrics.snapshot registry in
  feed registry [ 7.0; 2.0 ];
  let newer = Metrics.snapshot registry in
  let delta = Metrics.Snapshot.diff ~older ~newer in
  (* What happened between the snapshots... *)
  (match List.assoc "host/c" delta with
  | Metrics.Snapshot.Counter n -> Alcotest.(check int) "delta count" 2 n
  | _ -> Alcotest.fail "host/c kind");
  (* ...recombines with the older snapshot into the newer one. *)
  close_snapshots newer (Metrics.Snapshot.merge [ older; delta ])

let test_merge_rejects_mismatch () =
  let r1 = Metrics.create () in
  let r2 = Metrics.create () in
  ignore (Metrics.counter r1 "x");
  ignore (Metrics.summary r2 "x");
  match Metrics.Snapshot.merge [ Metrics.snapshot r1; Metrics.snapshot r2 ] with
  | _ -> Alcotest.fail "kind mismatch must be rejected"
  | exception Invalid_argument _ -> ()

let test_collisions_and_lint () =
  let registry = Metrics.create () in
  ignore (Metrics.counter registry "ni/x");
  ignore (Metrics.histogram registry "ni/x" ~bucket_width:1.0 ~buckets:4);
  ignore (Metrics.counter registry "unnamespaced");
  Alcotest.(check int) "one collision" 1
    (List.length (Metrics.collisions registry));
  let codes =
    List.map
      (fun (f : Utlb_check.Finding.t) -> f.Utlb_check.Finding.code)
      (Utlb_check.Config_lint.lint_metrics registry)
  in
  Alcotest.(check (list string)) "lint codes" [ "UC160"; "UC161" ] codes

let test_csv_json_exports () =
  let registry = Metrics.create () in
  feed registry [ 1.0; 5.0 ];
  let snap = Metrics.snapshot registry in
  let csv = Format.asprintf "%a" Metrics.Snapshot.to_csv snap in
  (match String.split_on_char '\n' csv with
  | header :: _ ->
    Alcotest.(check string) "csv header"
      "name,kind,count,total,mean,min,max,p50,p90,p99" header
  | [] -> Alcotest.fail "empty csv");
  let json = Format.asprintf "%a" Metrics.Snapshot.to_json snap in
  Alcotest.(check bool) "json object" true
    (String.length json > 0 && json.[0] = '{')

(* --- Campaign integration ------------------------------------------- *)

let obs_grid =
  {
    Grid.name = "obs-test";
    seed;
    workloads = [ tiny "fft" 0.004; tiny "lu" 0.004 ];
    mechanisms =
      [
        Grid.mech ~params:[ ("entries", "1024") ] "utlb";
        Grid.mech ~params:[ ("entries", "1024") ] "intr";
      ];
    tenants = None;
  }

let test_campaign_metrics_domain_independent () =
  let serial = Runner.run ~domains:1 ~observe:true obs_grid in
  let parallel = Runner.run ~domains:2 ~observe:true obs_grid in
  let render outcomes =
    match Runner.merged_metrics outcomes with
    | None -> Alcotest.fail "no metrics collected"
    | Some snap -> Format.asprintf "%a" Metrics.Snapshot.to_csv snap
  in
  (* Byte-identical merged metrics whatever the domain count. *)
  Alcotest.(check string) "merged csv" (render serial) (render parallel);
  (* Without ~observe the outcomes carry no snapshots. *)
  let off = Runner.run ~domains:1 obs_grid in
  Alcotest.(check bool) "observe off" true (Runner.merged_metrics off = None)

(* --- SVM / NIC engine-time integration ------------------------------ *)

let test_svm_emits_engine_time_events () =
  let cluster = Utlb_vmmc.Cluster.create () in
  let sink = Sink.create () in
  let obs = Scope.create ~sink () in
  let svm = Utlb_svm.Svm.create ~obs cluster ~pages:8 in
  let h0 = Utlb_svm.Svm.handle svm ~node:0 in
  ignore (Utlb_svm.Svm.read h0 ~page:1 ~off:0 ~len:8);
  Utlb_svm.Svm.write h0 ~page:1 ~off:0 (Bytes.of_string "dirty");
  Utlb_svm.Svm.release h0;
  Alcotest.(check int) "faults traced" (Utlb_svm.Svm.faults svm)
    (Sink.kind_count sink Event.Fault);
  Alcotest.(check int) "diffs traced"
    (Utlb_svm.Svm.diffs_sent svm)
    (Sink.kind_count sink Event.Diff);
  Alcotest.(check int) "diff bytes traced"
    (Utlb_svm.Svm.diff_bytes svm)
    (Sink.kind_total sink Event.Diff);
  Alcotest.(check bool) "bus spans" true
    (Sink.kind_count sink Event.Bus_start > 0);
  Alcotest.(check int) "bus spans balance"
    (Sink.kind_count sink Event.Bus_start)
    (Sink.kind_count sink Event.Bus_end);
  Alcotest.(check bool) "dispatches observed" true
    (Sink.kind_count sink Event.Dispatch > 0);
  (* Engine-time events are monotone within the retained ring once
     sorted by timestamp — and every event carries a finite time. *)
  Sink.iter sink (fun e ->
      Alcotest.(check bool) "finite timestamp" true
        (Float.is_finite e.Event.at_us))

let suite =
  [
    Alcotest.test_case "ring drops keep counts" `Quick
      test_ring_drops_keep_counts;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "span durations" `Quick test_span_durations;
    Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "timeline limit" `Quick test_timeline_limit_and_trailer;
    Alcotest.test_case "scope no-op paths" `Quick test_scope_noop_paths;
    Alcotest.test_case "scope clock" `Quick test_scope_clock_advances_by_cost;
    Alcotest.test_case "reconcile hier" `Quick test_reconcile_hier;
    Alcotest.test_case "reconcile intr" `Quick test_reconcile_intr;
    Alcotest.test_case "reconcile per-process" `Quick test_reconcile_pp;
    Alcotest.test_case "snapshot diff/merge roundtrip" `Quick
      test_snapshot_diff_merge_roundtrip;
    Alcotest.test_case "merge rejects mismatch" `Quick
      test_merge_rejects_mismatch;
    Alcotest.test_case "collisions and lint" `Quick test_collisions_and_lint;
    Alcotest.test_case "csv/json exports" `Quick test_csv_json_exports;
    Alcotest.test_case "campaign metrics domain-independent" `Quick
      test_campaign_metrics_domain_independent;
    Alcotest.test_case "svm engine-time events" `Quick
      test_svm_emits_engine_time_events;
  ]
