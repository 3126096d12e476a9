(* The multi-tenant virtualization plane: spec grammar, config lints,
   cache-window geometry, parallel-exact isolation accounting, quota
   enforcement at the engine boundary, and the end-to-end interference
   guarantee the partitioned sweeps rely on. *)

module Tenant = Utlb_tenant.Tenant
module Arbiter = Utlb_tenant.Arbiter
module Isolation = Utlb_tenant.Isolation
module Workloads = Utlb_trace.Workloads
module Plan = Utlb_fault.Plan
module Injector = Utlb_fault.Injector
module Pid = Utlb_mem.Pid
open Utlb

let config_of_spec spec =
  match Tenant.of_string spec with
  | Ok (Some cfg) -> cfg
  | Ok None -> Alcotest.failf "spec %S parsed to no tenancy" spec
  | Error e -> Alcotest.failf "spec %S: %s" spec e

(* --- Spec grammar -------------------------------------------------- *)

let test_spec_roundtrip () =
  let cfg =
    config_of_spec "strict/victim=0:share=0.5:weight=2/noisy=1-3:share=0.25"
  in
  Alcotest.(check bool) "mode" true (cfg.Tenant.mode = Tenant.Strict);
  Alcotest.(check int) "two tenants" 2 (Tenant.tenants cfg);
  let victim = Tenant.policy cfg 0 and noisy = Tenant.policy cfg 1 in
  Alcotest.(check string) "victim name" "victim" victim.Tenant.name;
  Alcotest.(check (list int)) "victim pids" [ 0 ] victim.Tenant.pids;
  Alcotest.(check (option (float 1e-9))) "victim share" (Some 0.5)
    victim.Tenant.share;
  Alcotest.(check int) "victim weight" 2 victim.Tenant.weight;
  Alcotest.(check (list int)) "range pids" [ 1; 2; 3 ] noisy.Tenant.pids;
  Alcotest.(check int) "default weight" 1 noisy.Tenant.weight;
  Alcotest.(check (option int)) "no quota" None noisy.Tenant.quota;
  (* to_string is the inverse of of_string up to defaults. *)
  let reparsed = config_of_spec (Tenant.to_string cfg) in
  Alcotest.(check bool) "round-trips" true (reparsed = cfg)

let test_spec_disabled () =
  (match Tenant.of_string "off" with
  | Ok None -> ()
  | _ -> Alcotest.fail "off must disable tenancy");
  (match Tenant.of_string "  " with
  | Ok None -> ()
  | _ -> Alcotest.fail "blank must disable tenancy");
  match Tenant.of_string "OFF" with
  | Ok None -> ()
  | _ -> Alcotest.fail "off is case-insensitive"

let test_spec_pid_atoms () =
  let cfg = config_of_spec "shared/t=0+2-4+7" in
  Alcotest.(check (list int)) "mixed atoms" [ 0; 2; 3; 4; 7 ]
    (Tenant.policy cfg 0).Tenant.pids

let test_spec_errors () =
  let rejects spec =
    match Tenant.of_string spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
  in
  rejects "sliced/t=0";
  (* unknown mode *)
  rejects "shared";
  (* no tenants *)
  rejects "shared/t";
  (* no pid set *)
  rejects "shared/=0";
  (* empty name *)
  rejects "shared/t=x";
  (* bad pid *)
  rejects "shared/t=3-1";
  (* inverted range *)
  rejects "shared/t=0:quota=many";
  (* bad attr value *)
  rejects "shared/t=0:colour=red" (* unknown attr *)

(* --- Config lints (UC18x) ------------------------------------------ *)

let codes_of ?sets spec =
  List.map fst (Tenant.validate ?sets (config_of_spec spec))

let test_validate_lints () =
  Alcotest.(check (list string)) "clean config" []
    (codes_of "strict/a=0:share=0.5/b=1:share=0.5" ~sets:8);
  Alcotest.(check (list string)) "overlapping pids" [ "UC181" ]
    (codes_of "shared/a=0-2/b=2-3");
  Alcotest.(check (list string)) "share out of range" [ "UC182" ]
    (codes_of "strict/a=0:share=-0.5");
  Alcotest.(check (list string)) "oversized share trips range and sum"
    [ "UC182"; "UC182" ]
    (codes_of "strict/a=0:share=1.5");
  Alcotest.(check (list string)) "shares oversum" [ "UC182" ]
    (codes_of "strict/a=0:share=0.75/b=1:share=0.75");
  Alcotest.(check (list string)) "non-positive quota" [ "UC183" ]
    (codes_of "shared/a=0:quota=0");
  Alcotest.(check (list string)) "non-positive weight" [ "UC183" ]
    (codes_of "shared/a=0:weight=-1");
  Alcotest.(check (list string)) "strict share below one set" [ "UC184" ]
    (codes_of "strict/a=0:share=0.01/b=1" ~sets:8)

(* --- Cache-window geometry ----------------------------------------- *)

let test_bind_strict_windows () =
  let arb = Arbiter.create (config_of_spec "strict/a=0:share=0.5/b=1:share=0.5") in
  Arbiter.bind arb ~sets:8;
  let win pid =
    match Arbiter.window arb ~pid with
    | Some w -> w
    | None -> Alcotest.failf "pid %d: expected a private window" pid
  in
  let indices pid =
    let base, mask, offset = win pid in
    List.init 64 (fun h -> base + ((h + offset) land mask))
    |> List.sort_uniq compare
  in
  let ia = indices 0 and ib = indices 1 in
  Alcotest.(check int) "a owns half the sets" 4 (List.length ia);
  Alcotest.(check int) "b owns half the sets" 4 (List.length ib);
  Alcotest.(check (list int)) "windows are disjoint and cover" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort_uniq compare (ia @ ib));
  (* Unmanaged pids see the whole cache. *)
  Alcotest.(check bool) "unmanaged pid unconstrained" true
    (Arbiter.window arb ~pid:9 = None)

let test_bind_offset_windows () =
  let arb = Arbiter.create (config_of_spec "offset/a=0/b=1") in
  Arbiter.bind arb ~sets:8;
  (* Tenant 0 keeps the identity mapping; tenant 1 is rotated by half
     the cache but still reaches every set. *)
  Alcotest.(check bool) "tenant 0 identity" true (Arbiter.window arb ~pid:0 = None);
  match Arbiter.window arb ~pid:1 with
  | Some (0, 7, 4) -> ()
  | Some (b, m, o) -> Alcotest.failf "tenant 1 window (%d,%d,%d)" b m o
  | None -> Alcotest.fail "tenant 1 must be offset"

let test_bind_inert () =
  Alcotest.(check bool) "none is inactive" false (Arbiter.active Arbiter.none);
  Arbiter.bind Arbiter.none ~sets:8;
  Alcotest.(check bool) "none has no windows" true
    (Arbiter.window Arbiter.none ~pid:0 = None);
  Alcotest.(check int) "none has no quota" max_int
    (Arbiter.quota_remaining Arbiter.none ~pid:0);
  Alcotest.(check bool) "none has no snapshot" true
    (Arbiter.snapshot Arbiter.none = None)

(* --- Isolation accounting ------------------------------------------ *)

(* Feed a list of per-window outcomes (window length 4) into an
   arbiter for pid 0 and return its snapshot. *)
let snapshot_of_windows misses_per_window =
  let arb = Arbiter.create ~window:4 (config_of_spec "shared/t=0") in
  List.iter
    (fun misses ->
      for i = 0 to 3 do
        Arbiter.note_ni_access arb ~pid:0 ~hit:(i >= misses)
      done)
    misses_per_window;
  match Arbiter.snapshot arb with
  | Some iso -> iso
  | None -> Alcotest.fail "active arbiter must snapshot"

let test_isolation_parallel_welford () =
  (* Two shards observe different window streams; their merged moments
     must equal the single-stream computation exactly. *)
  let a = snapshot_of_windows [ 1; 2 ] (* rates 0.25, 0.50 *)
  and b = snapshot_of_windows [ 4 ] (* rate 1.00 *) in
  let merged = Isolation.add a b in
  let row = merged.Isolation.rows.(0) in
  Alcotest.(check int) "windows" 3 row.Isolation.windows;
  let rates = [ 0.25; 0.5; 1.0 ] in
  let mean = List.fold_left ( +. ) 0.0 rates /. 3.0 in
  let var =
    List.fold_left (fun acc r -> acc +. ((r -. mean) ** 2.0)) 0.0 rates /. 2.0
  in
  Alcotest.(check (float 1e-12)) "merged mean" mean row.Isolation.win_mean;
  Alcotest.(check (float 1e-12)) "merged sample variance" var
    (Isolation.window_variance row);
  Alcotest.(check int) "accesses sum" 12 row.Isolation.ni_accesses;
  Alcotest.(check int) "misses sum" 7 row.Isolation.ni_misses

let test_isolation_merge_opt () =
  let a = snapshot_of_windows [ 1 ] in
  Alcotest.(check bool) "None is identity" true
    (Isolation.merge_opt (Some a) None = Some a);
  Alcotest.(check bool) "None absorbs" true
    (Isolation.merge_opt None None = None);
  match Tenant.of_string "shared/other=0" with
  | Ok (Some cfg) -> (
    let alien =
      match Arbiter.snapshot (Arbiter.create cfg) with
      | Some iso -> iso
      | None -> Alcotest.fail "snapshot"
    in
    try
      ignore (Isolation.add a alien);
      Alcotest.fail "merging different tenant sets must raise"
    with Invalid_argument _ -> ())
  | _ -> Alcotest.fail "parse"

let test_jain_weighted () =
  let arb =
    Arbiter.create ~window:1024 (config_of_spec "shared/a=0:weight=2/b=1")
  in
  (* Service proportional to weight: a gets 2x the hits of b. *)
  for _ = 1 to 20 do
    Arbiter.note_ni_access arb ~pid:0 ~hit:true
  done;
  for _ = 1 to 10 do
    Arbiter.note_ni_access arb ~pid:1 ~hit:true
  done;
  let iso = Option.get (Arbiter.snapshot arb) in
  Alcotest.(check (float 1e-9)) "proportional service is fair" 1.0
    (Isolation.jain iso)

(* --- Quota enforcement at the engine boundary ---------------------- *)

let quota_engine ?sanitizer ?faults quota =
  let tenancy =
    Arbiter.create (config_of_spec (Printf.sprintf "shared/t=0:quota=%d" quota))
  in
  let e =
    Hier_engine.create ?sanitizer ?faults ~tenancy ~seed:7L
      Hier_engine.default_config
  in
  (e, tenancy)

let denials tenancy =
  match Arbiter.snapshot tenancy with
  | Some iso -> Isolation.quota_denials iso
  | None -> Alcotest.fail "snapshot"

let pid0 = Pid.of_int 0

let test_quota_exactly_exhausted () =
  (* A request that lands exactly on the quota is fully admitted: no
     denial, no headroom left. *)
  let e, tenancy = quota_engine 4 in
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:4 in
  Alcotest.(check int) "all pages pinned" 4 o.Engine_intf.pages_pinned;
  Alcotest.(check int) "no headroom" 0 (Arbiter.quota_remaining tenancy ~pid:0);
  Alcotest.(check int) "no denials" 0 (denials tenancy)

let test_quota_overflow_denied () =
  (* A single request larger than the quota admits a prefix and denies
     the shortfall — the run proceeds, the surplus pages just stay
     unpinned (safe by design, like a memory-limit eviction). *)
  let e, tenancy = quota_engine 4 in
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:6 in
  Alcotest.(check int) "quota's worth pinned" 4 o.Engine_intf.pages_pinned;
  Alcotest.(check int) "shortfall denied" 2 (denials tenancy);
  Alcotest.(check int) "pin accounting agrees" 4
    (Hier_engine.pinned_pages e pid0)

let test_quota_self_shrink () =
  (* At quota, a new working set first evicts the tenant's own LRU
     pages rather than burning denials. *)
  let e, tenancy = quota_engine 4 in
  ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:100 ~npages:4);
  let o = Hier_engine.lookup e ~pid:pid0 ~vpn:200 ~npages:2 in
  Alcotest.(check int) "new pages pinned" 2 o.Engine_intf.pages_pinned;
  Alcotest.(check int) "old pages unpinned to make room" 2
    o.Engine_intf.pages_unpinned;
  Alcotest.(check int) "still at quota" 4 (Hier_engine.pinned_pages e pid0);
  Alcotest.(check int) "no denials" 0 (denials tenancy)

(* --- Degenerate tenancy is observationally inert ------------------- *)

let test_single_tenant_degenerate () =
  (* A single all-pid shared tenant with no quota must reproduce the
     untenanted run exactly — same counters, same costs — with the
     isolation block as the only difference. *)
  let spec = Workloads.interference in
  let mech =
    Sim_driver.Packed ((module Hier_engine), Hier_engine.default_config)
  in
  let plain = Sim_driver.run_workload ~seed:42L mech spec in
  let tenancy = Arbiter.create (config_of_spec "shared/all=0-7") in
  let tenanted = Sim_driver.run_workload ~seed:42L ~tenancy mech spec in
  Alcotest.(check bool) "tenanted run carries isolation" true
    (tenanted.Report.isolation <> None);
  Alcotest.(check bool) "otherwise byte-identical" true
    ({ tenanted with Report.isolation = None } = plain)

(* --- Tenant churn under an active fault plan ----------------------- *)

let test_churn_under_faults () =
  let faults =
    match
      Plan.of_string
        "dma-fail=0.3,dma-retries=2,cache-invalidate=0.1,table-swap=0.05"
    with
    | Ok p -> Injector.create ~seed:11L p
    | Error e -> Alcotest.fail e
  in
  let sanitizer = Utlb_sim.Sanitizer.create () in
  let tenancy =
    Arbiter.create (config_of_spec "shared/a=0:quota=64/b=1:quota=64")
  in
  let e =
    Hier_engine.create ~sanitizer ~faults ~tenancy ~seed:13L
      Hier_engine.default_config
  in
  let pid1 = Pid.of_int 1 in
  for i = 0 to 63 do
    ignore (Hier_engine.lookup e ~pid:pid0 ~vpn:(1000 + i) ~npages:1);
    ignore (Hier_engine.lookup e ~pid:pid1 ~vpn:(5000 + i) ~npages:1)
  done;
  Alcotest.(check int) "tenant b at quota" 0
    (Arbiter.quota_remaining tenancy ~pid:1);
  (* Departure releases every pin and restores the tenant's headroom,
     even mid-fault-storm. *)
  let released = Hier_engine.remove_process e pid1 in
  Alcotest.(check int) "all pages released" 64 released;
  Alcotest.(check int) "headroom restored" 64
    (Arbiter.quota_remaining tenancy ~pid:1);
  (* A successor process in the same tenant reuses the headroom. *)
  for i = 0 to 63 do
    ignore (Hier_engine.lookup e ~pid:pid1 ~vpn:(9000 + i) ~npages:1)
  done;
  Alcotest.(check int) "successor consumed it" 0
    (Arbiter.quota_remaining tenancy ~pid:1);
  Alcotest.(check int) "pin protocol stayed clean" 0
    (Utlb_sim.Sanitizer.errors sanitizer);
  let iso = Option.get (Arbiter.snapshot tenancy) in
  Alcotest.(check int) "no denials across churn" 0
    (Isolation.quota_denials iso)

(* --- The interference guarantee ------------------------------------ *)

let test_strict_partitioning_protects_victim () =
  (* The acceptance property of the tenancy subsystem: under strict set
     partitioning the victim keeps its hot set — lower miss rate, lower
     windowed miss-rate variance, zero cross-tenant evictions — while
     accounting-only (shared) tenancy documents the interference. *)
  let spec = Workloads.interference in
  let mech =
    Sim_driver.Packed ((module Hier_engine), Hier_engine.default_config)
  in
  let run tenants =
    let tenancy = Arbiter.create (config_of_spec tenants) in
    let r = Sim_driver.run_workload ~seed:42L ~tenancy mech spec in
    Option.get r.Report.isolation
  in
  let shared = run "shared/victim=0/noisy=1-3" in
  let strict = run "strict/victim=0:share=0.5/noisy=1-3:share=0.5" in
  let v iso = iso.Isolation.rows.(0) in
  Alcotest.(check bool) "shared mode interferes" true
    (Isolation.cross_evictions shared > 0);
  Alcotest.(check int) "strict mode cannot" 0
    (Isolation.cross_evictions strict);
  Alcotest.(check bool) "victim misses less when partitioned" true
    (Isolation.miss_rate (v strict) < Isolation.miss_rate (v shared));
  Alcotest.(check bool) "victim variance collapses when partitioned" true
    (Isolation.window_variance (v strict)
    < Isolation.window_variance (v shared))

let suite =
  [
    Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec off/blank" `Quick test_spec_disabled;
    Alcotest.test_case "spec pid atoms" `Quick test_spec_pid_atoms;
    Alcotest.test_case "spec errors" `Quick test_spec_errors;
    Alcotest.test_case "validate UC18x lints" `Quick test_validate_lints;
    Alcotest.test_case "strict windows partition" `Quick
      test_bind_strict_windows;
    Alcotest.test_case "offset windows rotate" `Quick test_bind_offset_windows;
    Alcotest.test_case "inert arbiter" `Quick test_bind_inert;
    Alcotest.test_case "parallel Welford merge" `Quick
      test_isolation_parallel_welford;
    Alcotest.test_case "merge_opt identity/mismatch" `Quick
      test_isolation_merge_opt;
    Alcotest.test_case "weighted Jain index" `Quick test_jain_weighted;
    Alcotest.test_case "quota exactly exhausted" `Quick
      test_quota_exactly_exhausted;
    Alcotest.test_case "quota overflow denied" `Quick
      test_quota_overflow_denied;
    Alcotest.test_case "quota self-shrink" `Quick test_quota_self_shrink;
    Alcotest.test_case "single-tenant degenerate" `Slow
      test_single_tenant_degenerate;
    Alcotest.test_case "churn under faults" `Quick test_churn_under_faults;
    Alcotest.test_case "strict partitioning protects victim" `Slow
      test_strict_partitioning_protects_victim;
  ]
