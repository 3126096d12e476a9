(* Allocation on the translation hot path, measured with
   [Gc.minor_words] (exact, this domain).

   A hit is a user-level check plus one Shared UTLB-Cache probe
   (Sections 3 and 6.2) and must allocate nothing on any registered
   engine. A replay of the paper's traces may allocate on misses (a
   fresh page's frame, a growing table) but little per lookup. Engine
   creation is not counted: most of it is the host's frame free
   list. *)

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

(* The seven Table-3 traces at quarter size, replay only. *)
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
      if per_lookup > 20.0 then
        Alcotest.failf "%s: replay allocates %.1f words per lookup" name
          per_lookup)
    (Driver.Registry.mechanisms ())

let suite =
  [
    Alcotest.test_case "hits allocate nothing" `Quick hits_allocate_nothing;
    Alcotest.test_case "paper replay allocates at most 20 words per lookup"
      `Quick replay_allocates_little;
  ]
