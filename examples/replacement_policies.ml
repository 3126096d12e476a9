(* Application-specific replacement policies (Section 3.4).

   UTLB lets each application choose which pinned pages to give up when
   physical memory runs short: LRU, MRU, LFU, MFU or RANDOM. The right
   answer depends on the access pattern — this example demonstrates two
   classic cases under a tight pinned-page budget:

   - a looping sweep slightly larger than the budget, where LRU is
     pathological (every access evicts the page needed soonest) and MRU
     is optimal;
   - a skewed hot/cold pattern, where LFU keeps the hot set and MRU is
     poor.

   Run with: dune exec examples/replacement_policies.exe *)

open Utlb
module Pid = Utlb_mem.Pid
module Rng = Utlb_sim.Rng

let budget = 256

let run policy workload =
  let config =
    {
      Hier_engine.default_config with
      policy;
      memory_limit_pages = Some budget;
    }
  in
  let engine = Hier_engine.create ~seed:3L config in
  let pid = Pid.of_int 0 in
  workload (fun vpn -> ignore (Hier_engine.lookup engine ~pid ~vpn ~npages:1));
  Hier_engine.report engine ~label:(Replacement.policy_name policy)

(* Cyclic sweep over budget+32 pages: the textbook LRU-killer. *)
let looping_sweep touch =
  let pages = budget + 32 in
  for _round = 1 to 50 do
    for p = 0 to pages - 1 do
      touch (0x1000 + p)
    done
  done

(* 90% of touches on 64 hot pages, 10% on a 4096-page cold tail. *)
let hot_cold touch =
  let rng = Rng.create ~seed:17L in
  for _ = 1 to 40_000 do
    if Rng.chance rng 0.9 then touch (0x1000 + Rng.int rng 64)
    else touch (0x10000 + Rng.int rng 4096)
  done

let show title workload =
  Printf.printf "\n%s (pinned-page budget %d)\n" title budget;
  Printf.printf "%-8s %14s %14s %14s\n" "policy" "check misses"
    "pages pinned" "pages unpinned";
  List.iter
    (fun policy ->
      let r = run policy workload in
      Printf.printf "%-8s %14d %14d %14d\n"
        (Replacement.policy_name policy)
        r.Report.check_misses r.Report.pages_pinned r.Report.pages_unpinned)
    Replacement.all_policies

let () =
  show "Looping sweep, 288 pages" looping_sweep;
  print_endline "-> MRU keeps most of the loop resident; LRU evicts exactly";
  print_endline "   the page that comes back soonest and repins constantly.";
  show "Hot/cold (64 hot pages, 4096-page cold tail)" hot_cold;
  print_endline "-> LFU/LRU protect the hot set; MRU keeps evicting it.";
  print_endline
    "\nThis is why UTLB exposes the policy to the application instead of";
  print_endline "hard-wiring one in the kernel or on the NI."
