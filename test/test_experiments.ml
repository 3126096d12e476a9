(* Shape checks against the paper's evaluation: these assert the
   qualitative findings of Tables 4-8 and Figures 7-8 hold in the
   reproduction, with tolerances (the substrate is synthetic, so exact
   numbers differ; the shape must not). These are the "does the headline
   result reproduce" tests. *)

open Utlb
module Workloads = Utlb_trace.Workloads

let seed = 42L

(* Cache one trace-driven run per configuration across tests. *)
let results : (string, Report.t) Hashtbl.t = Hashtbl.create 64

let utlb_run ?(prefetch = 1) ?(prepin = 1) ?memory_limit ?(entries = 4096)
    ?(assoc = Ni_cache.Direct) (spec : Workloads.spec) =
  let key =
    Printf.sprintf "u:%s:%d:%s:%d:%d:%s" spec.name entries
      (Ni_cache.associativity_name assoc)
      prefetch prepin
      (match memory_limit with None -> "inf" | Some n -> string_of_int n)
  in
  match Hashtbl.find_opt results key with
  | Some r -> r
  | None ->
    let config =
      {
        Hier_engine.cache = { Ni_cache.entries; associativity = assoc };
        prefetch;
        prepin;
        policy = Replacement.Lru;
        memory_limit_pages = memory_limit;
        backstop = Hier_engine.No_backstop;
      }
    in
    let r =
      Sim_driver.run_workload ~seed
        (Sim_driver.Packed ((module Hier_engine), config))
        spec
    in
    Hashtbl.replace results key r;
    r

let intr_run ?memory_limit ?(entries = 4096) (spec : Workloads.spec) =
  let key =
    Printf.sprintf "i:%s:%d:%s" spec.name entries
      (match memory_limit with None -> "inf" | Some n -> string_of_int n)
  in
  match Hashtbl.find_opt results key with
  | Some r -> r
  | None ->
    let config =
      {
        Intr_engine.cache = { Ni_cache.entries; associativity = Ni_cache.Direct };
        memory_limit_pages = memory_limit;
      }
    in
    let r =
      Sim_driver.run_workload ~seed
        (Sim_driver.Packed ((module Intr_engine), config))
        spec
    in
    Hashtbl.replace results key r;
    r

(* Table 4 finding: with infinite memory UTLB never unpins, while the
   interrupt approach unpins on every cache eviction. *)
let test_utlb_never_unpins_infinite_memory () =
  List.iter
    (fun spec ->
      let u = utlb_run ~entries:1024 spec in
      let i = intr_run ~entries:1024 spec in
      Alcotest.(check int) (spec.Workloads.name ^ " UTLB unpins") 0
        u.Report.pages_unpinned;
      Alcotest.(check bool) (spec.Workloads.name ^ " Intr unpins") true
        (i.Report.pages_unpinned > 0))
    Workloads.all

(* Both mechanisms share the cache structure, so NI miss rates match
   closely under infinite memory. *)
let test_ni_misses_match_across_mechanisms () =
  List.iter
    (fun spec ->
      let u = utlb_run ~entries:4096 spec in
      let i = intr_run ~entries:4096 spec in
      let delta =
        Float.abs (Report.ni_miss_rate u -. Report.ni_miss_rate i)
      in
      Alcotest.(check bool) (spec.Workloads.name ^ " rates close") true
        (delta < 0.05))
    Workloads.all

(* Table 4: the interrupt approach's unpins shrink as the cache grows;
   UTLB is insensitive (its check misses do not depend on the cache). *)
let test_cache_size_sensitivity () =
  List.iter
    (fun spec ->
      let small = intr_run ~entries:1024 spec in
      let large = intr_run ~entries:16384 spec in
      Alcotest.(check bool)
        (spec.Workloads.name ^ " Intr unpins shrink with cache")
        true
        (Report.unpin_rate large <= Report.unpin_rate small +. 1e-9);
      let u_small = utlb_run ~entries:1024 spec in
      let u_large = utlb_run ~entries:16384 spec in
      Alcotest.(check (float 1e-9))
        (spec.Workloads.name ^ " UTLB check misses cache-independent")
        (Report.check_miss_rate u_small)
        (Report.check_miss_rate u_large))
    Workloads.all

(* Table 6 finding: UTLB beats the interrupt approach at small caches
   (Barnes 1K: 2.6 vs 4.9; FFT 1K: 9.0 vs 21.7). *)
let test_utlb_wins_at_small_caches () =
  let model = Cost_model.default in
  List.iter
    (fun spec ->
      let u = utlb_run ~entries:1024 spec in
      let i = intr_run ~entries:1024 spec in
      Alcotest.(check bool)
        (spec.Workloads.name ^ " UTLB cheaper at 1K")
        true
        (Report.utlb_cost_us model u < Report.intr_cost_us model i))
    [ Workloads.barnes; Workloads.fft ]

(* FFT costs more per lookup than Barnes (big footprint, heavy pinning). *)
let test_fft_costlier_than_barnes () =
  let model = Cost_model.default in
  let fft = utlb_run ~entries:4096 Workloads.fft in
  let barnes = utlb_run ~entries:4096 Workloads.barnes in
  Alcotest.(check bool) "fft > barnes" true
    (Report.utlb_cost_us model fft > Report.utlb_cost_us model barnes)

(* Table 5: under a 4 MB limit UTLB still unpins no more than Intr. *)
let test_memory_limit_unpins () =
  List.iter
    (fun spec ->
      let u = utlb_run ~entries:4096 ~memory_limit:1024 spec in
      let i = intr_run ~entries:4096 ~memory_limit:1024 spec in
      Alcotest.(check bool)
        (spec.Workloads.name ^ " UTLB unpins <= Intr unpins")
        true
        (Report.unpin_rate u <= Report.unpin_rate i +. 0.02))
    Workloads.all

(* FFT's check misses roughly double when memory is tight (0.25 -> 0.49
   in the paper): evicted pages must be re-pinned on the next pass. *)
let test_fft_check_misses_rise_under_limit () =
  let free = utlb_run ~entries:4096 Workloads.fft in
  let tight = utlb_run ~entries:4096 ~memory_limit:1024 Workloads.fft in
  Alcotest.(check bool) "check misses rise" true
    (Report.check_miss_rate tight > Report.check_miss_rate free *. 1.5)

(* Table 8: direct-nohash is much worse than direct-with-offsetting, at
   every size; direct is competitive with set-associative. *)
let test_offsetting_beats_nohash () =
  List.iter
    (fun spec ->
      List.iter
        (fun entries ->
          let direct = utlb_run ~entries spec in
          let nohash =
            utlb_run ~entries ~assoc:Ni_cache.Direct_nohash spec
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s@%d nohash worse" spec.Workloads.name entries)
            true
            (Report.ni_miss_rate nohash > Report.ni_miss_rate direct +. 0.02))
        [ 1024; 16384 ])
    [ Workloads.water; Workloads.volrend; Workloads.fft; Workloads.barnes ]

let test_direct_competitive_with_assoc () =
  List.iter
    (fun spec ->
      let direct = utlb_run ~entries:4096 spec in
      let two_way = utlb_run ~entries:4096 ~assoc:Ni_cache.Two_way spec in
      Alcotest.(check bool)
        (spec.Workloads.name ^ " direct close to 2-way")
        true
        (Report.ni_miss_rate direct
         <= Report.ni_miss_rate two_way +. 0.06))
    Workloads.all

(* Figure 7: at 16K entries compulsory misses dominate. *)
let test_compulsory_dominates_at_16k () =
  List.iter
    (fun spec ->
      let r = utlb_run ~entries:16384 spec in
      let comp, cap, conf = Report.miss_breakdown r in
      Alcotest.(check bool)
        (spec.Workloads.name ^ " compulsory majority at 16K")
        true
        (comp > cap +. conf))
    Workloads.all

(* Figure 8: prefetching monotonically (within noise) cuts RADIX's miss
   rate, and the average lookup cost falls with aggressiveness. *)
let test_prefetch_reduces_radix_misses () =
  let model = Cost_model.default in
  let rates =
    List.map
      (fun p ->
        let r = utlb_run ~prefetch:p ~prepin:p ~entries:4096 Workloads.radix in
        (Report.ni_miss_rate r, Report.utlb_cost_us ~prefetch:p model r))
      [ 1; 4; 16; 32 ]
  in
  (match rates with
  | (m1, c1) :: rest ->
    let m32, c32 = List.nth rest 2 in
    Alcotest.(check bool) "big miss reduction" true (m32 < m1 /. 2.0);
    Alcotest.(check bool) "cost falls" true (c32 < c1 /. 1.5)
  | [] -> Alcotest.fail "no rates");
  List.fold_left
    (fun (pm, pc) (m, c) ->
      Alcotest.(check bool) "miss monotone" true (m <= pm +. 0.03);
      Alcotest.(check bool) "cost monotone" true (c <= pc +. 0.5);
      (m, c))
    (1.0, 1000.0) rates
  |> ignore

(* Table 7 / Section 6.5: 16-page pre-pinning cuts the amortised pin
   cost for every application; FFT's strided pattern makes it pay in
   unpins under a memory limit (the paper's one exception). *)
let test_prepin_amortisation () =
  let model = Cost_model.default in
  List.iter
    (fun spec ->
      let one = utlb_run ~prepin:1 ~memory_limit:4096 ~entries:8192 spec in
      let sixteen = utlb_run ~prepin:16 ~memory_limit:4096 ~entries:8192 spec in
      Alcotest.(check bool)
        (spec.Workloads.name ^ " prepin cuts amortised pin cost")
        true
        (Report.amortized_pin_us model sixteen
         < Report.amortized_pin_us model one))
    [ Workloads.lu; Workloads.radix; Workloads.raytrace; Workloads.water ]

let test_fft_prepin_penalty () =
  let model = Cost_model.default in
  let one = utlb_run ~prepin:1 ~memory_limit:4096 ~entries:8192 Workloads.fft in
  let sixteen =
    utlb_run ~prepin:16 ~memory_limit:4096 ~entries:8192 Workloads.fft
  in
  let total r =
    Report.amortized_pin_us model r +. Report.amortized_unpin_us model r
  in
  Alcotest.(check bool) "FFT: 16-page prepin is a net loss" true
    (total sixteen > total one)

(* Intr pays one interrupt per NI miss; UTLB pays none. *)
let test_interrupt_counts () =
  List.iter
    (fun spec ->
      let u = utlb_run ~entries:4096 spec in
      let i = intr_run ~entries:4096 spec in
      Alcotest.(check int) (spec.Workloads.name ^ " UTLB interrupts") 0
        u.Report.interrupts;
      Alcotest.(check int)
        (spec.Workloads.name ^ " one interrupt per page miss")
        i.Report.ni_page_misses i.Report.interrupts)
    [ Workloads.volrend; Workloads.water ]

let suite =
  [
    Alcotest.test_case "UTLB never unpins (infinite memory)" `Slow
      test_utlb_never_unpins_infinite_memory;
    Alcotest.test_case "NI misses match across mechanisms" `Slow
      test_ni_misses_match_across_mechanisms;
    Alcotest.test_case "cache-size sensitivity" `Slow test_cache_size_sensitivity;
    Alcotest.test_case "UTLB wins at small caches" `Slow
      test_utlb_wins_at_small_caches;
    Alcotest.test_case "FFT costlier than Barnes" `Slow
      test_fft_costlier_than_barnes;
    Alcotest.test_case "memory-limit unpins" `Slow test_memory_limit_unpins;
    Alcotest.test_case "FFT check misses rise under limit" `Slow
      test_fft_check_misses_rise_under_limit;
    Alcotest.test_case "offsetting beats nohash" `Slow test_offsetting_beats_nohash;
    Alcotest.test_case "direct competitive with assoc" `Slow
      test_direct_competitive_with_assoc;
    Alcotest.test_case "compulsory dominates at 16K" `Slow
      test_compulsory_dominates_at_16k;
    Alcotest.test_case "prefetch reduces RADIX misses" `Slow
      test_prefetch_reduces_radix_misses;
    Alcotest.test_case "prepin amortisation" `Slow test_prepin_amortisation;
    Alcotest.test_case "FFT prepin penalty" `Slow test_fft_prepin_penalty;
    Alcotest.test_case "interrupt counts" `Slow test_interrupt_counts;
  ]
