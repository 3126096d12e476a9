(* Allocation on the translation hot path, measured with
   [Gc.minor_words] (exact, this domain).

   A hit is a user-level check plus one Shared UTLB-Cache probe
   (Sections 3 and 6.2) and must allocate nothing on any registered
   engine. A replay of the paper's traces may allocate on misses (a
   growing table, a process's first lookup) but little per lookup, and
   the host's page-table calls and the pin of a fresh page allocate
   nothing. Creating an engine allocates a few hundred words, none of
   them per host frame. Observing a replay and generating its trace,
   the two other layers of [utlbsim sweep --metrics], are bounded
   too. *)

module Driver = Utlb.Sim_driver
module Engine_intf = Utlb.Engine_intf
module Workloads = Utlb_trace.Workloads
module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
module Pid = Utlb_mem.Pid

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let packed name =
  match Driver.Registry.resolve ~name ~params:[] with
  | Ok packed -> packed
  | Error msg -> Alcotest.fail msg

(* Warm a fresh engine on pages 0-63, run 1,000 hits so that the
   trackers' heaps stop growing, then compare 10,000 more hits with
   the same loop without the lookup. *)
let hits_allocate_nothing () =
  List.iter
    (fun (entry : Driver.Registry.entry) ->
      let name = entry.Driver.Registry.name in
      List.iter
        (fun npages ->
          let (Driver.Packed ((module E), config)) = packed name in
          let engine = E.create ~seed:Driver.default_seed config in
          let pid = Pid.of_int 0 in
          for vpn = 0 to 63 do
            ignore (E.lookup engine ~pid ~vpn ~npages:1)
          done;
          let hit i = E.lookup engine ~pid ~vpn:(i land 31) ~npages in
          for i = 1 to 1_000 do
            ignore (hit i)
          done;
          let outcomes = ref 0 in
          let looked_up =
            words (fun () ->
                for i = 1 to 10_000 do
                  if hit i != Engine_intf.unchanged then incr outcomes
                done)
          in
          let empty =
            words (fun () ->
                for i = 1 to 10_000 do
                  if Sys.opaque_identity i < 0 then incr outcomes
                done)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: every hit returns the shared outcome" name)
            0 !outcomes;
          if looked_up > empty then
            Alcotest.failf "%s: 10,000 hits of %d pages allocate %.0f words"
              name npages (looked_up -. empty))
        [ 1; 4 ])
    (Driver.Registry.mechanisms ())

(* The seven Table-3 traces at quarter size, replay only. The bound is
   the measured 3.28 words per lookup (intr; the others 0.53-2.77, all
   9.1-9.9 before the host's frame allocator, page table and outcomes
   stopped allocating) plus 10%. *)
let replay_allocates_little () =
  let traces =
    List.map
      (fun spec ->
        (Workloads.scaled spec ~factor:0.25).Workloads.generate
          ~seed:Driver.default_seed)
      Workloads.all
  in
  List.iter
    (fun (entry : Driver.Registry.entry) ->
      let name = entry.Driver.Registry.name in
      let (Driver.Packed ((module E), config)) = packed name in
      let total = ref 0.0 and lookups = ref 0 in
      List.iter
        (fun trace ->
          let engine = E.create ~seed:Driver.default_seed config in
          total :=
            !total
            +. words (fun () ->
                   Trace.iter trace (fun (r : Record.t) ->
                       ignore
                         (E.lookup engine ~pid:r.pid ~vpn:r.vpn
                            ~npages:r.npages)));
          lookups := !lookups + Trace.length trace)
        traces;
      let per_lookup = !total /. float_of_int !lookups in
      if per_lookup > 3.6 then
        Alcotest.failf "%s: replay allocates %.1f words per lookup" name
          per_lookup)
    (Driver.Registry.mechanisms ())

(* Each registered engine at registry defaults, with its private
   256 MB host. The bound is the measured 424 words (victima; the
   others 166-367, all about 196,900 while the host built a free list
   of its 65,535 frames) plus 10%. *)
let creation_allocates_little () =
  List.iter
    (fun (entry : Driver.Registry.entry) ->
      let name = entry.Driver.Registry.name in
      let (Driver.Packed ((module E), config)) = packed name in
      let created =
        words (fun () ->
            ignore (Sys.opaque_identity (E.create ~seed:Driver.default_seed config)))
      in
      if created > 467.0 then
        Alcotest.failf "%s: creating the engine allocates %.0f words" name
          created)
    (Driver.Registry.mechanisms ())

(* The host's fast paths on a warmed table: reading a page's frame and
   pin count, setting its frame and moving its pin count, and pinning
   a page that is not resident yet (a fault, a frame from the
   allocator, the owner note). Each used to allocate the page table's
   (directory, index) pair, and the fresh pin also the allocator's
   option: 3 words a call, 11 a fresh pin. *)
let host_paths_allocate_nothing () =
  let module Page_table = Utlb_mem.Page_table in
  let module Host_memory = Utlb_mem.Host_memory in
  let n = 1_000 in
  let check what f =
    let used =
      words (fun () ->
          for i = 1 to n do
            f i
          done)
    in
    if used > 0.0 then Alcotest.failf "%d %s allocate %.0f words" n what used
  in
  let table = Page_table.create () in
  for vpn = 0 to 63 do
    Page_table.set table vpn ~frame:(vpn + 1)
  done;
  check "Page_table.frame_of calls" (fun i ->
      ignore (Sys.opaque_identity (Page_table.frame_of table (i land 63))));
  check "Page_table.pin_of calls" (fun i ->
      ignore (Sys.opaque_identity (Page_table.pin_of table (i land 63))));
  check "Page_table.set calls" (fun i ->
      Page_table.set table (i land 63) ~frame:i);
  check "Page_table.adjust_pin calls" (fun i ->
      ignore
        (Sys.opaque_identity
           (Page_table.adjust_pin table 5 ~delta:(if i land 1 = 1 then 1 else -1))));
  let host = Host_memory.create () in
  let pid = Pid.of_int 0 in
  Host_memory.add_process host pid;
  let frames = Array.make 1 0 in
  (* Pages 0-9 grow the page table's block; 10-1009 share it. *)
  for vpn = 0 to 9 do
    ignore (Host_memory.pin_into host pid ~vpn ~count:1 frames)
  done;
  check "Host_memory.pin_into calls on fresh pages" (fun i ->
      if not (Host_memory.pin_into host pid ~vpn:(9 + i) ~count:1 frames) then
        Alcotest.fail "pin failed");
  Alcotest.(check int) "every page was faulted in" (n + 10)
    (Host_memory.faults host)

(* One-page VMMC stores from node 0 into node 1's export on a 2-node
   cluster: the command ring, both NIs' translations, the DMA engines,
   the channel and the fabric, with the payload checksummed at both
   ends. Two passes over 16 pages warm the pins, caches and queues;
   the four measured passes store to the same pages one at a time. The
   bound is the measured 467.0 words per store plus 10%. *)
let store_allocates_little () =
  let module Cluster = Utlb_vmmc.Cluster in
  let page = 4096 and pages = 16 in
  let config = { Cluster.default_config with topology = Cluster.Star 2 } in
  let cluster = Cluster.create ~config () in
  let a = Cluster.spawn cluster ~node:0 and b = Cluster.spawn cluster ~node:1 in
  let export_id, key =
    Cluster.Process.export b ~vaddr:0x100000 ~len:(pages * page)
  in
  let dest = Cluster.Process.import a ~node:1 ~export_id ~key in
  let data = Bytes.init (pages * page) (fun i -> Char.chr (i * 7 land 0xFF)) in
  Cluster.Process.write_memory a ~vaddr:0x10000 data;
  let pass () =
    for i = 0 to pages - 1 do
      Cluster.Process.send a dest ~lvaddr:(0x10000 + (i * page))
        ~offset:(i * page) ~len:page;
      Cluster.run cluster
    done
  in
  pass ();
  pass ();
  let per_store =
    words (fun () ->
        for _ = 1 to 4 do
          pass ()
        done)
    /. float_of_int (4 * pages)
  in
  Alcotest.(check int) "every store completed" (6 * pages)
    (Cluster.sends_completed cluster);
  Alcotest.(check int) "no retransmission" 0 (Cluster.retransmissions cluster);
  Alcotest.(check bytes) "delivered intact" data
    (Cluster.Process.read_memory b ~vaddr:0x100000 ~len:(pages * page));
  if per_store > 514.0 then
    Alcotest.failf "a one-page store allocates %.1f words" per_store

(* The same quarter-size traces replayed through [Sim_driver.run_packed]
   with and without a scope, on a fresh engine each time; the scope is
   the one [utlbsim sweep --metrics] builds per cell (a metric registry
   and [Obs_cost] prices), created outside the measured call. The
   difference is what observation adds per lookup: the scope's tick
   and the engines' probe events, which allocate nothing once each
   (kind, count) is priced. The bound is the measured 0.00615 words
   per lookup (utlb and victima; was about 20) plus 10%. *)
let observed_replay_adds_little () =
  let traces =
    List.map
      (fun spec ->
        (Workloads.scaled spec ~factor:0.25).Workloads.generate
          ~seed:Driver.default_seed)
      Workloads.all
  in
  List.iter
    (fun (entry : Driver.Registry.entry) ->
      let name = entry.Driver.Registry.name in
      let packed = packed name in
      let added = ref 0.0 and lookups = ref 0 in
      List.iter
        (fun trace ->
          let plain = words (fun () -> ignore (Driver.run_packed packed trace)) in
          let obs =
            Utlb_obs.Scope.create ~metrics:(Utlb_obs.Metrics.create ())
              ~cost_of:Utlb.Obs_cost.default ()
          in
          let observed =
            words (fun () -> ignore (Driver.run_packed ~obs packed trace))
          in
          added := !added +. (observed -. plain);
          lookups := !lookups + Trace.length trace)
        traces;
      let per_lookup = !added /. float_of_int !lookups in
      if per_lookup > 0.0068 then
        Alcotest.failf "%s: observing a replay adds %.2f words per lookup" name
          per_lookup)
    (Driver.Registry.mechanisms ())

(* Generating the seven Table-3 traces at full size: the streams, the
   merge and the time-ordered record array. What is left is mostly the
   records themselves (6 words and a 2-word boxed time each) and the
   boxed floats [Rng.float] returns for the time steps and the
   multi-way rolls ([Rng.chance] answers the compare-only ones without
   a float). The bound is the measured 11.13 words per record (13.34
   before [Rng.chance], 59.2 before that) plus 10%. *)
let generation_allocates_little () =
  let total = ref 0.0 and records = ref 0 in
  List.iter
    (fun (spec : Workloads.spec) ->
      let trace = ref None in
      total :=
        !total
        +. words (fun () -> trace := Some (spec.generate ~seed:Driver.default_seed));
      records := !records + Trace.length (Option.get !trace))
    Workloads.all;
  let per_record = !total /. float_of_int !records in
  if per_record > 12.3 then
    Alcotest.failf "trace generation allocates %.1f words per record" per_record

let suite =
  [
    Alcotest.test_case "hits allocate nothing" `Quick hits_allocate_nothing;
    Alcotest.test_case "paper replay allocates at most 3.6 words per lookup"
      `Quick replay_allocates_little;
    Alcotest.test_case "engine creation allocates at most 467 words" `Quick
      creation_allocates_little;
    Alcotest.test_case "host page-table paths allocate nothing" `Quick
      host_paths_allocate_nothing;
    Alcotest.test_case "vmmc store allocates at most 514 words" `Quick
      store_allocates_little;
    Alcotest.test_case "observed replay adds at most 0.0068 words per lookup"
      `Quick observed_replay_adds_little;
    Alcotest.test_case "trace generation allocates at most 12.3 words per record"
      `Quick generation_allocates_little;
  ]
