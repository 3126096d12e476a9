(* The benchmark's four workloads. Each is a closed loop with one
   client: a rep starts when the previous one ends, and every rep
   starts its modelled caches empty, as the paper's traces do. A rep
   times only its calls into the simulator; the checks on its output
   run outside the timed sections. *)

module Driver = Utlb.Sim_driver
module Report = Utlb.Report
module Workloads = Utlb_trace.Workloads
module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
module Grid = Utlb_exp.Grid
module Runner = Utlb_exp.Runner
module Emit = Utlb_exp.Emit
module Cluster = Utlb_vmmc.Cluster
module Process = Utlb_vmmc.Cluster.Process

(* Host time and minor words of the timed sections of one rep. Minor
   words come from [Gc.quick_stat], which also counts domains that
   have been joined. *)
type meter = { mutable ns : int; mutable words : float }

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let timed meter f =
  let w0 = minor_words () in
  let t0 = Stats.now_ns () in
  let r = f () in
  meter.ns <- meter.ns + (Stats.now_ns () - t0);
  meter.words <- meter.words +. (minor_words () -. w0);
  r

type rep = {
  attempted : int;  (** Ops the rep issued. *)
  lost : int;
      (** Ops found lost or corrupted by the rep's own check, without
          the digest. *)
  output : string;  (** The simulated output the digest is taken of. *)
  report : Report.t;  (** Counters of every engine the rep ran, merged. *)
}

(* What the traced reps timed call by call: the per-call histogram,
   the counters of the work those calls did, and counts of layer ops
   that no [Report] counter holds (keyed by microbench name). The
   accounting gate prices these counts with the microbenches. *)
type calls = {
  hist : Stats.Histogram.t;
  mutable work : Report.t;
  mutable extra : (string * float) list;
}

let calls =
  { hist = Stats.Histogram.create (); work = Report.empty ~label:"calls";
    extra = [] }

let add_extra name count =
  let prev = Option.value ~default:0. (List.assoc_opt name calls.extra) in
  calls.extra <- (name, prev +. count) :: List.remove_assoc name calls.extra

type instance = {
  rep : meter -> rep;
  reference : (unit -> string) option;
      (** The output of an independently checked run (sanitizers on, or
          serial); [None] when each rep checks its own output. *)
  layer_extras : expected:string -> (string * float) list;
      (** Traced-run measurements only this workload can make, and the
          checks they allow against the [expected] output. *)
}

type t = { name : string; setup : seed:int -> instance }

let outcome index ~workload ~mech report =
  {
    Runner.cell = { Grid.index; workload; mech };
    report;
    violations = [];
    metrics = None;
    events = [];
  }

(* ------------------------------------------------------------------ *)
(* Trace replay: paper-replay, pin-pressure.                           *)

type cell = {
  spec : Workloads.spec;
  trace : Trace.t;
  mech : Grid.mech;
  packed : Driver.packed;
  frames : int option;  (** Host DRAM frames; [None] is the default host. *)
}

(* [Sim_driver.run_packed]'s body, split into spans, with each
   [E.lookup] timed into the call histogram while tracing. *)
let replay_cell ?sanitizer ~seed c =
  let (Driver.Packed ((module E), config)) = c.packed in
  let detail = Printf.sprintf "%s,%s" E.mechanism c.spec.Workloads.name in
  let engine =
    Span.with_ "engine.create" ~detail (fun () ->
        let host =
          Option.map (fun frames -> Utlb_mem.Host_memory.create ~frames ()) c.frames
        in
        E.create ?host ?sanitizer ~seed:(Int64.of_int seed) config)
  in
  Span.with_ "replay" ~detail (fun () ->
      if !Span.enabled then
        Trace.iter c.trace (fun (r : Record.t) ->
            let t0 = Stats.now_ns () in
            ignore (E.lookup engine ~pid:r.pid ~vpn:r.vpn ~npages:r.npages);
            Stats.Histogram.add calls.hist (Stats.now_ns () - t0))
      else
        Trace.iter c.trace (fun (r : Record.t) ->
            ignore (E.lookup engine ~pid:r.pid ~vpn:r.vpn ~npages:r.npages)));
  E.run_invariants engine;
  let report =
    Span.with_ "engine.report" ~detail (fun () ->
        E.report engine ~label:c.spec.Workloads.name)
  in
  if !Span.enabled then calls.work <- Report.add calls.work report;
  report

let csv_of cells reports =
  Emit.to_string Emit.csv
    (List.mapi
       (fun i (c, report) -> outcome i ~workload:c.spec ~mech:c.mech report)
       (List.combine cells reports))

let replay_instance ~seed cells =
  let run_cell c =
    (* The default host goes through the public driver entry point;
       a custom host needs the engine's own [create]. *)
    if !Span.enabled || c.frames <> None then replay_cell ~seed c
    else
      Driver.run_packed ~seed:(Int64.of_int seed) ~label:c.spec.Workloads.name
        c.packed c.trace
  in
  {
    rep =
      (fun meter ->
        let reports = timed meter (fun () -> List.map run_cell cells) in
        {
          attempted = List.fold_left (fun n c -> n + Trace.length c.trace) 0 cells;
          lost = 0;
          output = csv_of cells reports;
          report = Report.merge reports;
        });
    reference =
      Some
        (fun () ->
          csv_of cells
            (List.map
               (fun c ->
                 replay_cell ~sanitizer:(Utlb_sim.Sanitizer.create ()) ~seed c)
               cells));
    layer_extras = (fun ~expected:_ -> []);
  }

let generate ~seed specs =
  List.map
    (fun spec ->
      ( spec,
        Span.with_ "trace.generate" ~detail:spec.Workloads.name (fun () ->
            spec.Workloads.generate ~seed:(Int64.of_int seed)) ))
    specs

(* Every registered engine over the seven Table-3 applications, each
   engine at [params_of] its name. *)
let engines_by_apps ~seed params_of =
  let traces = generate ~seed Workloads.all in
  List.concat_map
    (fun (entry : Driver.Registry.entry) ->
      let params = params_of entry.name in
      let mech = Grid.mech ~params entry.name in
      List.map
        (fun (spec, trace) ->
          { spec; trace; mech; packed = entry.of_params params; frames = None })
        traces)
    (Driver.Registry.mechanisms ())

let paper_replay =
  {
    name = "paper-replay";
    setup =
      (fun ~seed -> replay_instance ~seed (engines_by_apps ~seed (fun _ -> [])));
  }

let pin_pressure_params = function
  | "intr" -> [ ("entries", "1024"); ("limit-mb", "1") ]
  | "per-process" -> [ ("budget", "4096") ]
  | _ -> [ ("entries", "1024"); ("limit-mb", "1"); ("prefetch", "4") ]

(* utlb at defaults on fft at half its Table-3 size, on a 512-frame
   host: the pinned demand is ~14x DRAM, so the host is full early in
   the trace and from then on nearly every check miss is a failed pin
   with a full clock scan. A host that fills late makes the rep cost
   depend on the seed. *)
let dram_overcommit ~seed =
  let spec = Workloads.scaled Workloads.fft ~factor:0.5 in
  let entry = Option.get (Driver.Registry.find "utlb") in
  List.map
    (fun (spec, trace) ->
      { spec; trace; mech = Grid.mech "utlb"; packed = entry.of_params [];
        frames = Some 512 })
    (generate ~seed [ spec ])

(* Pin pressure from both sides: limits on the NI's pinned pages for
   every engine, and host DRAM far below the pinned demand. *)
let pin_pressure =
  {
    name = "pin-pressure";
    setup =
      (fun ~seed ->
        replay_instance ~seed
          (engines_by_apps ~seed pin_pressure_params @ dram_overcommit ~seed));
  }

(* ------------------------------------------------------------------ *)
(* observed-sweep: what [utlbsim sweep --metrics] does. The timed reps
   and the reference run use one domain: on a 2-vCPU host a 2-domain
   rep waits for the slower vCPU at every minor GC, which doubled the
   run-to-run spread of [wall_s], and a 2-domain reference run made
   [peak_rss_mb] vary by 7% at one seed. The traced run times the
   2-domain fan-out ([exp.parallel_eff]) and checks that its output
   does not depend on the domain count. *)

let grid_path = "grids/headtohead.grid"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let sweep_output outcomes =
  Emit.to_string Emit.csv outcomes
  ^
  match Runner.merged_metrics outcomes with
  | None -> ""
  | Some snapshot -> Format.asprintf "%a" Utlb_obs.Metrics.Snapshot.to_csv snapshot

let wall f =
  let t0 = Stats.now_ns () in
  let r = f () in
  (r, float_of_int (Stats.now_ns () - t0))

let observed_sweep =
  {
    name = "observed-sweep";
    setup =
      (fun ~seed ->
        let grid =
          match Grid.of_string ~name:"headtohead" (read_file grid_path) with
          | Ok grid -> { grid with seed = Int64.of_int seed }
          | Error msg -> failwith (grid_path ^ ": " ^ msg)
        in
        {
          rep =
            (fun meter ->
              let outcomes, output =
                timed meter (fun () ->
                    let outcomes =
                      Span.with_ "exp.runner" (fun () -> Runner.run ~observe:true grid)
                    in
                    (outcomes, Span.with_ "exp.emit" (fun () -> sweep_output outcomes)))
              in
              let report = Runner.merged_report outcomes in
              { attempted = report.lookups; lost = 0; output; report });
          reference =
            Some
              (fun () ->
                let outcomes = Runner.run ~sanitize:true ~observe:true grid in
                (match Runner.violation_summary outcomes with
                | [] -> ()
                | (code, n) :: _ ->
                  failwith (Printf.sprintf "sanitizer: %d x %s" n code));
                sweep_output outcomes);
          layer_extras =
            (fun ~expected ->
              (* Warm trace cache from here on: these runs time the
                 runner and engines, not trace generation. *)
              let cache = Runner.trace_cache () in
              if sweep_output (Runner.run ~cache ~domains:2 ~observe:true grid) <> expected
              then failwith "the 2-domain sweep's output differs from the 1-domain one";
              let observed = ref [] and plain = ref [] in
              for _ = 1 to 3 do
                observed :=
                  snd (wall (fun () -> Runner.run ~cache ~domains:2 ~observe:true grid))
                  :: !observed;
                plain := snd (wall (fun () -> Runner.run ~cache ~domains:2 grid)) :: !plain
              done;
              let serial =
                List.fold_left
                  (fun total (cell : Grid.cell) ->
                    let one =
                      { grid with workloads = [ cell.workload ]; mechanisms = [ cell.mech ] }
                    in
                    let outcomes, ns =
                      wall (fun () -> Runner.run ~cache ~observe:true one)
                    in
                    Stats.Histogram.add calls.hist (int_of_float ns);
                    calls.work <- Report.add calls.work (Runner.merged_report outcomes);
                    total +. ns)
                  0. (Grid.cells grid)
              in
              let observed = Stats.median !observed in
              [
                ("exp.parallel_eff", serial /. (2. *. observed));
                ("obs.overhead_frac", (observed /. Stats.median !plain) -. 1.);
              ]);
        });
  }

(* ------------------------------------------------------------------ *)
(* vmmc-stores: all-to-all remote stores on a 4-node cluster.          *)

let nodes = 4

let export_len = 1 lsl 20

let source_len = 1 lsl 18

let dst_base = 0x4000_0000

let src_base = 0x1000_0000

(* Up to one page per store, and no store crosses a page. With 16 KB
   stores the fault-free fabric already retransmits more packets than
   it delivers, and with 64 KB stores in both directions of a channel
   the cluster drains with stores never completed, so larger sizes
   would measure those faults rather than the store path. *)
let sizes = [| 64; 256; 1024; 4096 |]

let page = 4096

(* Round [r]'s sender is node [r mod nodes]; it stores every size into
   every other node, so each [nodes] rounds are one all-to-all. When
   all nodes sent at once, acks queued past the channel's 100 us
   timeout and about one packet in five was retransmitted, a count
   that varied with the seed; one sender per round retransmits none. *)
let rounds = 200

(* Each (sender, size) pair owns a disjoint slot of every export, so
   the stores never overlap and each can be checked byte for byte. *)
let slot_len = export_len / ((nodes - 1) * Array.length sizes)

type store = { src : int; dst : int; len : int; src_off : int; dst_off : int }

(* A random offset in [lo, hi) whose [len] bytes fit in one page. A
   store that crosses a page costs a second translation and packet,
   so letting the seed decide how many cross made the work per store
   depend on the seed. *)
let in_page rng ~lo ~hi ~len =
  let first = (lo + page - 1) / page and last = (hi / page) - 1 in
  ((first + Utlb_sim.Rng.int rng (last - first + 1)) * page)
  + Utlb_sim.Rng.int rng (page - len + 1)

let plan ~seed =
  let rng = Utlb_sim.Rng.create ~seed:(Int64.of_int seed) in
  Array.init rounds (fun r ->
      let src = r mod nodes in
      let stores = ref [] in
      for dst = 0 to nodes - 1 do
        if src <> dst then
          Array.iteri
            (fun k len ->
              let rank = if src < dst then src else src - 1 in
              let slot = (rank * Array.length sizes) + k in
              stores :=
                {
                  src; dst; len;
                  src_off = in_page rng ~lo:0 ~hi:source_len ~len;
                  dst_off = in_page rng ~lo:(slot * slot_len) ~hi:((slot + 1) * slot_len) ~len;
                }
                :: !stores)
            sizes
      done;
      Array.of_list (List.rev !stores))

let build ~seed sources =
  let config = { Cluster.default_config with seed = Int64.of_int seed } in
  let cluster = Cluster.create ~config () in
  let procs = Array.init nodes (fun node -> Cluster.spawn cluster ~node) in
  let exports =
    Array.map (fun p -> Process.export p ~vaddr:dst_base ~len:export_len) procs
  in
  let imports =
    Array.init nodes (fun src ->
        Array.init nodes (fun dst ->
            if src = dst then None
            else
              let export_id, key = exports.(dst) in
              Some (Process.import procs.(src) ~node:dst ~export_id ~key)))
  in
  Array.iteri (fun i p -> Process.write_memory p ~vaddr:src_base sources.(i)) procs;
  (cluster, procs, imports)

(* [Cluster.run], one [Engine.step] at a time while tracing. *)
let drain cluster =
  if !Span.enabled then begin
    let engine = Cluster.engine cluster in
    let steps = ref 0 in
    let rec go () =
      let t0 = Stats.now_ns () in
      let fired = Utlb_sim.Engine.step engine in
      Stats.Histogram.add calls.hist (Stats.now_ns () - t0);
      if fired then begin
        incr steps;
        go ()
      end
    in
    go ();
    add_extra "sim.schedule_step" (float_of_int !steps)
  end
  else Cluster.run cluster

let vmmc_stores =
  {
    name = "vmmc-stores";
    setup =
      (fun ~seed ->
        let rng = Utlb_sim.Rng.create ~seed:(Int64.of_int (seed lxor 0x5A5A)) in
        let sources =
          Array.init nodes (fun _ ->
              Bytes.init source_len (fun _ -> Char.chr (Utlb_sim.Rng.int rng 256)))
        in
        let rounds = plan ~seed in
        let first = ref (Some (build ~seed sources)) in
        {
          rep =
            (fun meter ->
              let cluster, procs, imports =
                match !first with
                | Some built ->
                  first := None;
                  built
                | None -> Span.with_ "setup" (fun () -> build ~seed sources)
              in
              let attempted = ref 0 and lost = ref 0 and bytes = ref 0 in
              Array.iter
                (fun stores ->
                  let completed = Array.make (Array.length stores) false in
                  timed meter (fun () ->
                      Array.iteri
                        (fun i s ->
                          Process.send procs.(s.src)
                            ~on_complete:(fun () -> completed.(i) <- true)
                            (Option.get imports.(s.src).(s.dst))
                            ~lvaddr:(src_base + s.src_off) ~offset:s.dst_off ~len:s.len)
                        stores;
                      Span.with_ "sim.run" (fun () -> drain cluster));
                  Array.iteri
                    (fun i s ->
                      incr attempted;
                      bytes := !bytes + s.len;
                      let got =
                        Process.read_memory procs.(s.dst) ~vaddr:(dst_base + s.dst_off)
                          ~len:s.len
                      in
                      if not (completed.(i)
                              && Bytes.equal got (Bytes.sub sources.(s.src) s.src_off s.len))
                      then incr lost)
                    stores)
                rounds;
              let reports =
                List.init nodes (fun node -> Cluster.utlb_report cluster ~node)
              in
              let node_spec =
                Workloads.custom ~name:"vmmc" ~generate:(fun ~seed:_ ->
                    Trace.of_records [||]) ()
              in
              let output =
                Emit.to_string Emit.csv
                  (List.mapi
                     (fun node report ->
                       outcome node ~workload:node_spec
                         ~mech:(Grid.mech ~params:[ ("node", string_of_int node) ] "utlb")
                         report)
                     reports)
                ^ Printf.sprintf
                    "sends=%d stores=%d garbage=%d retransmissions=%d desyncs=%d \
                     now_us=%.3f\n"
                    (Cluster.sends_completed cluster) (Cluster.stores_received cluster)
                    (Cluster.garbage_stores cluster) (Cluster.retransmissions cluster)
                    (Cluster.ring_desyncs cluster) (Cluster.now_us cluster)
              in
              let report = Report.merge reports in
              if !Span.enabled then begin
                calls.work <- Report.add calls.work report;
                (* Each store's pages are checksummed at the sender and
                   the receiver and written once into the memory image. *)
                let pages = float_of_int !bytes /. 4096. in
                add_extra "net.crc32_4k" (2. *. pages);
                add_extra "vmmc.memory_image_write" pages
              end;
              { attempted = !attempted; lost = !lost; output; report });
          reference = None;
          layer_extras = (fun ~expected:_ -> []);
        });
  }

let all = [ paper_replay; pin_pressure; observed_sweep; vmmc_stores ]

let find name = List.find_opt (fun w -> w.name = name) all
