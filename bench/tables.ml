(* Reproduction of every table and figure in the paper's evaluation.

   Each [table_N]/[figure_N] function prints the same rows/series the
   paper reports. Tables 1–3 come straight from the cost model and the
   trace generators; every simulated table is a declarative campaign —
   a [Utlb_exp.Grid] of workloads x mechanism points handed to the
   domain-parallel runner and pivoted by [Utlb_exp.Emit.matrix]. The
   parallel fan-out is byte-identical to a serial run, so the printed
   tables are stable however many cores execute them. *)

module Workloads = Utlb_trace.Workloads
module Trace = Utlb_trace.Trace
module Grid = Utlb_exp.Grid
module Runner = Utlb_exp.Runner
module Emit = Utlb_exp.Emit
open Utlb

let seed = 42L

let sizes = [ 1024; 2048; 4096; 8192; 16384 ]

let sizes_s = List.map string_of_int sizes

let entry_counts = [ 1; 2; 4; 8; 16; 32 ]

let model = Cost_model.default

let domains = max 2 (min 8 (Domain.recommended_domain_count ()))

let run_campaign ?(workloads = Workloads.all) name mechanisms =
  Runner.run ~domains { Grid.name; seed; workloads; mechanisms; tenants = None }

(* Pivot accessors shared by the table declarations. *)
let cell (o : Runner.outcome) = o.Runner.cell

let report (o : Runner.outcome) = o.Runner.report

let app o = (cell o).Grid.workload.Workloads.name

let param_of o key = Option.value ~default:"" (Grid.param (cell o) key)

let entries_k o = string_of_int (int_of_string (param_of o "entries") / 1024) ^ "K"

let mech_tag o =
  match (cell o).Grid.mech.Grid.mech_name with
  | "utlb" -> "U"
  | "intr" -> "I"
  | "per-process" -> "P"
  | "victima" -> "V"
  | "utopia" -> "O"
  | m -> m

let check o = Report.check_miss_rate (report o)

let ni o = Report.ni_miss_rate (report o)

let unpins o = Report.unpin_rate (report o)

let cost_us o =
  match (cell o).Grid.mech.Grid.mech_name with
  | "intr" -> Report.intr_cost_us model (report o)
  | mech ->
    let prefetch =
      match Grid.param (cell o) "prefetch" with
      | Some p -> int_of_string p
      | None -> 1
    in
    (match mech with
    | "victima" -> Report.victima_cost_us ~prefetch model (report o)
    | "utopia" -> Report.utopia_cost_us ~prefetch model (report o)
    | _ -> Report.utlb_cost_us ~prefetch model (report o))

let matrix ?fmt ~rows ~cols ~metrics outcomes =
  Emit.matrix ?fmt ~rows ~cols ~metrics Format.std_formatter outcomes

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let table1 () =
  header "Table 1: UTLB overhead on the host processor (microseconds)";
  Printf.printf "%-12s" "num pages";
  List.iter (fun n -> Printf.printf "%8d" n) entry_counts;
  print_newline ();
  let row name f =
    Printf.printf "%-12s" name;
    List.iter (fun n -> Printf.printf "%8.1f" (f n)) entry_counts;
    print_newline ()
  in
  row "check min" (fun n -> Cost_model.check_min_us model ~pages:n);
  row "check max" (fun n -> Cost_model.check_max_us model ~pages:n);
  row "pin" (fun n -> Cost_model.pin_us model ~pages:n);
  row "unpin" (fun n -> Cost_model.unpin_us model ~pages:n)

let table2 () =
  header
    "Table 2: UTLB overhead on the network interface (hit cost 0.8 us)";
  Printf.printf "%-16s" "num entries";
  List.iter (fun n -> Printf.printf "%8d" n) entry_counts;
  print_newline ();
  let row name f =
    Printf.printf "%-16s" name;
    List.iter (fun n -> Printf.printf "%8.1f" (f n)) entry_counts;
    print_newline ()
  in
  row "DMA cost (us)" (fun n -> Cost_model.dma_us model ~entries:n);
  row "total miss (us)" (fun n -> Cost_model.ni_miss_us model ~entries:n)

let table3 () =
  header "Table 3: application problem size, footprint, lookups (per node)";
  Printf.printf "%-12s %-18s %12s %12s %12s %12s\n" "application"
    "problem size" "footprint" "(paper)" "lookups" "(paper)";
  List.iter
    (fun (spec : Workloads.spec) ->
      let trace = spec.generate ~seed in
      Printf.printf "%-12s %-18s %12d %12d %12d %12d\n" spec.name
        spec.problem_size
        (Trace.footprint_pages trace)
        spec.table3_footprint (Trace.length trace) spec.table3_lookups)
    Workloads.all

let mechanism_matrix name extra =
  let outcomes =
    run_campaign name
      (Grid.axes "utlb" (("entries", sizes_s) :: extra)
      @ Grid.axes "intr" (("entries", sizes_s) :: extra))
  in
  matrix ~fmt:(Printf.sprintf "%.2f") ~rows:entries_k
    ~cols:(fun o -> app o ^ "/" ^ mech_tag o)
    ~metrics:
      [ ("check misses", check); ("NI misses", ni); ("unpins", unpins) ]
    outcomes

let table4 () =
  header
    "Table 4: UTLB vs Intr translation overhead per lookup \
     (infinite host memory, direct-mapped with offsetting, no prefetch)";
  mechanism_matrix "table4" []

let table5 () =
  header
    "Table 5: UTLB vs Intr translation overhead per lookup \
     (4 MB per-process memory limit)";
  mechanism_matrix "table5" [ ("limit-mb", [ "4" ]) ]

let table6 () =
  header
    "Table 6: average lookup cost in microseconds (infinite host memory)";
  let entries = [ "1024"; "4096"; "16384" ] in
  let outcomes =
    run_campaign
      ~workloads:[ Workloads.barnes; Workloads.fft ]
      "table6"
      (Grid.axes "utlb" [ ("entries", entries) ]
      @ Grid.axes "intr" [ ("entries", entries) ])
  in
  matrix ~fmt:(Printf.sprintf "%.1f") ~rows:entries_k
    ~cols:(fun o -> app o ^ "/" ^ mech_tag o)
    ~metrics:[ ("cost (us)", cost_us) ]
    outcomes

let table7 () =
  header
    "Table 7: amortized pin/unpin cost per lookup (us), prepin 1 vs 16 \
     pages, 16 MB per-process limit";
  let outcomes =
    run_campaign
      ~workloads:
        [ Workloads.barnes; Workloads.radix; Workloads.raytrace;
          Workloads.water; Workloads.fft; Workloads.lu ]
      "table7"
      (Grid.axes "utlb"
         [ ("prepin", [ "1"; "16" ]); ("entries", [ "8192" ]);
           ("limit-mb", [ "16" ]) ])
  in
  matrix ~fmt:(Printf.sprintf "%.1f")
    ~rows:(fun o -> "prepin " ^ param_of o "prepin")
    ~cols:app
    ~metrics:
      [
        ("pin", fun o -> Report.amortized_pin_us model (report o));
        ("unpin", fun o -> Report.amortized_unpin_us model (report o));
      ]
    outcomes

let table8 () =
  header
    "Table 8: overall miss rates in the Shared UTLB-Cache vs cache size \
     and associativity (infinite host memory, no prefetch)";
  let outcomes =
    run_campaign "table8"
      (Grid.axes "utlb"
         [ ("entries", sizes_s);
           ("assoc", [ "direct"; "2-way"; "4-way"; "direct-nohash" ]) ])
  in
  matrix ~fmt:(Printf.sprintf "%.2f")
    ~rows:(fun o -> entries_k o ^ " " ^ param_of o "assoc")
    ~cols:app
    ~metrics:[ ("NI miss", ni) ]
    outcomes

let figure7 () =
  header
    "Figure 7: breakdown of translation cache miss rates (%) into \
     compulsory/capacity/conflict (infinite host memory, direct-mapped, \
     no prefetch)";
  let outcomes =
    run_campaign "figure7"
      (Grid.axes "utlb"
         [ ("entries", [ "1024"; "4096"; "8192"; "16384" ]) ])
  in
  let breakdown pick o =
    let comp, cap, conf = Report.miss_breakdown (report o) in
    100.0 *. pick (comp, cap, conf)
  in
  matrix ~fmt:(Printf.sprintf "%.1f") ~rows:app ~cols:entries_k
    ~metrics:
      [
        ("total%", fun o -> 100.0 *. ni o);
        ("compulsory%", breakdown (fun (c, _, _) -> c));
        ("capacity%", breakdown (fun (_, c, _) -> c));
        ("conflict%", breakdown (fun (_, _, c) -> c));
      ]
    outcomes

let figure8 () =
  header
    "Figure 8: prefetching effect in the translation cache (RADIX, \
     infinite host memory, direct-mapped; prefetch coupled with \
     sequential pre-pinning)";
  (* Prefetch and prepin move together, so the points are zipped by
     hand rather than crossed by [Grid.axes]. *)
  let prefetches = [ 1; 4; 8; 12; 16; 20; 24; 28; 32 ] in
  let outcomes =
    run_campaign ~workloads:[ Workloads.radix ] "figure8"
      (List.concat_map
         (fun entries ->
           List.map
             (fun p ->
               Grid.mech
                 ~params:
                   [ ("entries", string_of_int entries);
                     ("prefetch", string_of_int p);
                     ("prepin", string_of_int p) ]
                 "utlb")
             prefetches)
         sizes)
  in
  matrix ~fmt:(Printf.sprintf "%.2f") ~rows:entries_k
    ~cols:(fun o -> param_of o "prefetch")
    ~metrics:[ ("NI miss", ni); ("cost (us)", cost_us) ]
    outcomes

(* Ablation beyond the paper's tables: the five user-level replacement
   policies under a tight memory limit (Section 3.4 offers them; the
   paper's study only used LRU — this quantifies the choice). *)
let ablation_policies () =
  header
    "Ablation: replacement policy vs pin/unpin traffic (4 MB limit, 8K \
     direct-mapped cache)";
  let outcomes =
    run_campaign "ablation-policies"
      (Grid.axes "utlb"
         [ ("policy", List.map Replacement.policy_name Replacement.all_policies);
           ("limit-mb", [ "4" ]); ("entries", [ "8192" ]) ])
  in
  matrix ~fmt:(Printf.sprintf "%.2f") ~rows:app
    ~cols:(fun o -> param_of o "policy")
    ~metrics:[ ("check", check); ("unpins", unpins) ]
    outcomes

(* Extension experiment: the comparison the paper could not run
   (Section 7, limitation 2) — Per-process UTLB tables vs the Shared
   UTLB-Cache under the same NI SRAM budget. *)
let ablation_per_process () =
  header
    "Ablation: Per-process UTLB vs Shared UTLB-Cache at equal SRAM budget \
     (8K entries total, 5 processes, infinite host memory)";
  let outcomes =
    run_campaign "ablation-pp"
      [
        Grid.mech "per-process";
        Grid.mech ~params:[ ("entries", "8192") ] "utlb";
      ]
  in
  matrix ~rows:app
    ~cols:(fun o -> Grid.mech_label (cell o).Grid.mech)
    ~metrics:[ ("check", check); ("unpins", unpins); ("NI miss", ni) ]
    outcomes;
  Printf.printf
    "(per-process tables get %d entries each; the shared cache never\n\
     \ unpins, while static shares force unpins whenever a process's\n\
     \ footprint exceeds its slice.)\n"
    (Pp_engine.default_config.Pp_engine.sram_budget_entries
    / Pp_engine.default_config.Pp_engine.processes)

(* Extension experiment: end-to-end VMMC latency through the full
   simulated stack, cold (first use of the buffers: pinning + NI cache
   fills on both sides) vs warm (the UTLB fast path the paper's 0.9 us
   translation cost enables). *)
let e2e_latency () =
  header
    "End-to-end VMMC remote-store latency (simulated), cold vs warm UTLB";
  let module Cluster = Utlb_vmmc.Cluster in
  Printf.printf "%-10s %14s %14s %14s\n" "size" "cold (us)" "warm (us)"
    "cold/warm";
  List.iter
    (fun size ->
      let cluster = Cluster.create () in
      let a = Cluster.spawn cluster ~node:0 in
      let b = Cluster.spawn cluster ~node:1 in
      let export_id, key =
        Cluster.Process.export b ~vaddr:0x100000 ~len:(max size 4096)
      in
      let h = Cluster.Process.import a ~node:1 ~export_id ~key in
      Cluster.Process.write_memory a ~vaddr:0x200000 (Bytes.create size);
      let measure () =
        let t0 = Cluster.now_us cluster in
        let done_at = ref t0 in
        Cluster.Process.send a h ~lvaddr:0x200000 ~offset:0 ~len:size
          ~on_complete:(fun () -> done_at := Cluster.now_us cluster);
        Cluster.run cluster;
        !done_at -. t0
      in
      let cold = measure () in
      (* Pins and cache entries now exist on both sides. *)
      let warm = measure () in
      let warm2 = measure () in
      let warm = Float.min warm warm2 in
      Printf.printf "%-10s %14.1f %14.1f %14.2f\n"
        (if size >= 4096 then Printf.sprintf "%dKB" (size / 1024)
         else Printf.sprintf "%dB" size)
        cold warm (cold /. warm))
    [ 64; 512; 4096; 16384; 65536 ]

(* Extension experiment: replay a calibrated workload trace through the
   full VMMC stack (NIC firmware, DMA, fabric, reliable channels) under
   both translation mechanisms, and compare whole-run communication
   time — the end-to-end version of Table 6. *)
let online_replay () =
  header
    "Online trace replay through VMMC: UTLB vs interrupt-based NI \
     (1K-entry caches, first 3000 records per workload)";
  let module Cluster = Utlb_vmmc.Cluster in
  let mechanisms =
    List.map
      (fun name ->
        ( name,
          Result.get_ok
            (Sim_driver.Registry.resolve ~name ~params:[ ("entries", "1024") ])
        ))
      [ "utlb"; "intr" ]
  in
  Printf.printf "%-10s %-6s %12s %12s %12s %12s\n" "app" "mech" "sim ms"
    "interrupts" "pins" "NI misses";
  List.iter
    (fun (spec : Workloads.spec) ->
      let records = Utlb_trace.Trace.records (spec.generate ~seed) in
      let n = min 3000 (Array.length records) in
      List.iter
        (fun (name, translation) ->
          let cluster =
            Cluster.create
              ~config:{ Cluster.default_config with translation }
              ()
          in
          (* Five sender processes on node 0 (the traced node); one
             receiver per remote node exporting a 16 MB window. *)
          let senders = Array.init 5 (fun _ -> Cluster.spawn cluster ~node:0) in
          let window_pages = 4096 in
          let imports =
            Array.init 3 (fun i ->
                let receiver = Cluster.spawn cluster ~node:(i + 1) in
                let export_id, key =
                  Cluster.Process.export receiver ~vaddr:0x2000000
                    ~len:(window_pages * 4096)
                in
                Array.map
                  (fun sender ->
                    Cluster.Process.import sender ~node:(i + 1) ~export_id ~key)
                  senders)
          in
          Cluster.run cluster;
          let start = Cluster.now_us cluster in
          for k = 0 to n - 1 do
            let r = records.(k) in
            let sender = senders.(Utlb_mem.Pid.to_int r.Utlb_trace.Record.pid) in
            let vpn = r.Utlb_trace.Record.vpn in
            let len = r.Utlb_trace.Record.npages * 4096 in
            let dest = vpn mod 3 in
            let offset = vpn mod (window_pages - 8) * 4096 in
            let import = imports.(dest).(Utlb_mem.Pid.to_int r.Utlb_trace.Record.pid) in
            (match r.Utlb_trace.Record.op with
            | Utlb_trace.Record.Send ->
              Cluster.Process.send sender import ~lvaddr:(vpn * 4096) ~offset
                ~len
            | Utlb_trace.Record.Fetch ->
              Cluster.Process.fetch sender import ~offset ~len
                ~lvaddr:(vpn * 4096));
            (* Sequential replay: drain between operations so both
               mechanisms see identical queueing. *)
            Cluster.run cluster
          done;
          let elapsed_ms = (Cluster.now_us cluster -. start) /. 1000.0 in
          let interrupts = ref 0 and pins = ref 0 and misses = ref 0 in
          for node = 0 to 3 do
            let r = Cluster.utlb_report cluster ~node in
            interrupts := !interrupts + r.Report.interrupts;
            pins := !pins + r.Report.pin_calls;
            misses := !misses + r.Report.ni_page_misses
          done;
          Printf.printf "%-10s %-6s %12.1f %12d %12d %12d\n"
            spec.Workloads.name name elapsed_ms !interrupts !pins !misses)
        mechanisms)
    [ Workloads.water; Workloads.volrend ]

(* Extension experiment: sensitivity of the Table 4 behaviour to
   problem size. The UTLB claim — robust performance at small cache
   sizes — should hold as footprints grow past Table 3. *)
let scaling () =
  header
    "Scaling: miss rates vs problem-size factor (8K-entry direct cache, \
     infinite host memory)";
  let scaled_named base factor =
    let s = Workloads.scaled base ~factor in
    Workloads.custom
      ~name:(Printf.sprintf "%s@%g" base.Workloads.name factor)
      ~problem_size:s.Workloads.problem_size
      ~description:s.Workloads.description ~generate:s.Workloads.generate ()
  in
  let workloads =
    List.concat_map
      (fun base ->
        List.map (scaled_named base) [ 0.5; 1.0; 2.0; 4.0 ])
      [ Workloads.water; Workloads.fft ]
  in
  let outcomes =
    run_campaign ~workloads "scaling"
      [
        Grid.mech ~params:[ ("entries", "8192") ] "utlb";
        Grid.mech ~params:[ ("entries", "8192") ] "intr";
      ]
  in
  matrix ~rows:app
    ~cols:(fun o -> mech_tag o)
    ~metrics:[ ("check", check); ("NI miss", ni); ("unpins", unpins) ]
    outcomes

(* Extension experiment: collective-operation cost vs topology. The
   same binomial/dissemination patterns cost more over a switch chain
   than over one crossbar — quantified end to end. *)
let collectives () =
  header "Collectives: simulated completion time (us) by topology";
  let module Cluster = Utlb_vmmc.Cluster in
  let module Msg = Utlb_msg.Msg in
  let module Collective = Utlb_msg.Collective in
  Printf.printf "%-22s %12s %12s %12s %12s\n" "topology" "bcast 4KB"
    "barrier" "reduce 8B" "alltoall 1KB";
  List.iter
    (fun (name, topology, members) ->
      let config = { Cluster.default_config with topology } in
      let cluster = Cluster.create ~config () in
      let endpoints =
        Array.init members (fun i ->
            Msg.create cluster ~node:(i mod Cluster.node_count cluster) ())
      in
      let g = Collective.group endpoints in
      let timed f =
        let t0 = Cluster.now_us cluster in
        f ();
        Cluster.now_us cluster -. t0
      in
      let bcast =
        timed (fun () ->
            ignore (Collective.broadcast g ~root:0 (Bytes.create 4096)))
      in
      let barrier = timed (fun () -> Collective.barrier g) in
      let reduce =
        timed (fun () ->
            ignore
              (Collective.reduce g ~root:0 ~combine:(fun a _ -> a)
                 (Array.make members (Bytes.create 8))))
      in
      let a2a =
        timed (fun () ->
            ignore
              (Collective.all_to_all g
                 (Array.init members (fun _ ->
                      Array.init members (fun _ -> Bytes.create 1024)))))
      in
      Printf.printf "%-22s %12.1f %12.1f %12.1f %12.1f\n" name bcast barrier
        reduce a2a)
    [
      ("star-4 (4 ranks)", Cluster.Star 4, 4);
      ( "chain-4x2 (8 ranks)",
        Cluster.Chain { switches = 4; hosts_per_switch = 2 },
        8 );
    ]

(* Extension experiment: true multiprogramming — independent
   applications sharing one NI, the behaviour Section 7 says the
   paper's traces could not capture. Compares each application's miss
   rates alone vs in a mix, and the benefit of index offsetting. *)
let ablation_multiprogramming () =
  header
    "Ablation: independent applications timesharing one NI (8K-entry \
     cache, infinite host memory)";
  let mix =
    Workloads.multiprogram
      [ Workloads.water; Workloads.volrend; Workloads.barnes ]
  in
  let outcomes =
    run_campaign
      ~workloads:[ Workloads.water; Workloads.volrend; Workloads.barnes; mix ]
      "ablation-multi"
      (Grid.axes "utlb"
         [ ("entries", [ "8192" ]);
           ("assoc", [ "direct"; "direct-nohash" ]) ])
  in
  matrix ~rows:app
    ~cols:(fun o -> param_of o "assoc")
    ~metrics:[ ("check", check); ("NI miss", ni) ]
    outcomes;
  Printf.printf
    "(the mix runs 15 processes against one cache: check misses are \
     unchanged while shared-cache contention raises NI misses — and \
     offsetting matters even more than with one application)\n"

(* Extension experiment: the grids/headtohead.grid campaign as a table —
   the three 1998 designs against the two modern engines (victima's L2
   victim store, utopia's RestSeg zone) over every paper workload at
   the 1K-entry pressure point, where capacity evictions happen. *)
let headtohead () =
  header
    "Head-to-head: 1998 designs vs Victima/Utopia (1K-entry caches, \
     infinite host memory; U=utlb I=intr P=per-process V=victima O=utopia)";
  let outcomes =
    run_campaign "headtohead"
      [
        Grid.mech ~params:[ ("entries", "1024"); ("prefetch", "4") ] "utlb";
        Grid.mech ~params:[ ("entries", "1024") ] "intr";
        Grid.mech ~params:[ ("budget", "4096") ] "per-process";
        Grid.mech
          ~params:
            [ ("entries", "1024"); ("prefetch", "4");
              ("victim-entries", "2048") ]
          "victima";
        Grid.mech
          ~params:
            [ ("entries", "1024"); ("prefetch", "4");
              ("rest-sets", "2048"); ("rest-ways", "4") ]
          "utopia";
      ]
  in
  matrix ~fmt:(Printf.sprintf "%.2f") ~rows:app ~cols:mech_tag
    ~metrics:[ ("NI miss", ni); ("cost (us)", cost_us) ]
    outcomes

let all_named =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("figure7", figure7);
    ("figure8", figure8);
    ("ablation", ablation_policies);
    ("ablation-pp", ablation_per_process);
    ("e2e", e2e_latency);
    ("online", online_replay);
    ("scaling", scaling);
    ("collectives", collectives);
    ("ablation-multi", ablation_multiprogramming);
    ("headtohead", headtohead);
  ]
