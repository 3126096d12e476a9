module Trace = Utlb_trace.Trace
module Record = Utlb_trace.Record
module Workloads = Utlb_trace.Workloads

type packed = Engine_intf.packed =
  | Packed : (module Engine_intf.S with type config = 'c) * 'c -> packed

let mechanism_name (Packed ((module E), _)) = E.mechanism

let stepper (Packed ((module E), config)) = E.stepper config

let default_seed = 0x5EED_CAFEL

let src =
  Logs.Src.create "utlb.driver" ~doc:"Trace-driven simulation driver"

module Log = (val Logs.src_log src : Logs.LOG)

let load_trace_lenient ic =
  Trace.load_lenient
    ~on_skip:(fun ~line:_ msg ->
      Log.warn (fun m -> m "skipping malformed trace record: %s" msg))
    ic

let run_packed ?(seed = default_seed) ?sanitizer ?obs ?faults ?tenancy
    ?(records_skipped = 0) ?label (Packed ((module E), config)) trace =
  let engine = E.create ?sanitizer ?obs ?faults ?tenancy ~seed config in
  (* The observed/unobserved decision is hoisted out of the record loop
     so the unobserved hot path tests nothing per record. *)
  (match obs with
  | None ->
    Trace.iter trace (fun (r : Record.t) ->
        ignore (E.lookup engine ~pid:r.pid ~vpn:r.vpn ~npages:r.npages))
  | Some o ->
    Trace.iter trace (fun (r : Record.t) ->
        (* One tick per record: the scope emits the Lookup event, closes
           the previous lookup's cost attribution, and carries the pid
           for the engine's own emissions. *)
        Utlb_obs.Scope.tick o
          ~pid:(Utlb_mem.Pid.to_int r.pid)
          ~vpn:r.vpn ~npages:r.npages ();
        ignore (E.lookup engine ~pid:r.pid ~vpn:r.vpn ~npages:r.npages));
    Utlb_obs.Scope.finish o);
  E.run_invariants engine;
  let report = E.report engine ~label:(Option.value ~default:E.mechanism label) in
  if records_skipped = 0 then report
  else
    {
      report with
      Report.records_skipped = report.Report.records_skipped + records_skipped;
    }

let run_workload ?seed ?sanitizer ?obs ?faults ?tenancy packed
    (spec : Workloads.spec) =
  let seed = Option.value ~default:default_seed seed in
  let trace = spec.Workloads.generate ~seed in
  run_packed ~seed ?sanitizer ?obs ?faults ?tenancy ~label:spec.Workloads.name
    packed trace

(* ------------------------------------------------------------------ *)
(* Mechanism registry                                                  *)

module Registry = struct
  type entry = {
    name : string;
    doc : string;
    of_params : (string * string) list -> packed;
  }

  let table : (string, entry) Hashtbl.t = Hashtbl.create 8

  let register ~name ~doc of_params =
    let key = String.lowercase_ascii name in
    if Hashtbl.mem table key then
      invalid_arg
        (Printf.sprintf "Sim_driver.Registry.register: %S already registered"
           name);
    (* Every entry refuses what its engine's [create] would refuse, so
       the checkers, which never create an engine, cannot certify it. *)
    let of_params params =
      let (Packed ((module E), config) as packed) = of_params params in
      E.validate config;
      packed
    in
    Hashtbl.replace table key { name = key; doc; of_params }

  let find name = Hashtbl.find_opt table (String.lowercase_ascii name)

  let resolve ~name ~params =
    match find name with
    | None -> Error (Printf.sprintf "unregistered mechanism %S" name)
    | Some entry -> (
      try Ok (entry.of_params params) with Invalid_argument msg -> Error msg)

  let mechanisms () =
    Hashtbl.fold (fun _ e acc -> e :: acc) table []
    |> List.sort (fun a b -> String.compare a.name b.name)
end

(* Parameter parsing shared by the built-in registrations. Unknown keys
   are deliberately ignored so that one campaign grid can carry axes
   for several mechanisms (e.g. a prefetch axis that only the UTLB
   engine interprets). *)

let bad key value expected =
  invalid_arg
    (Printf.sprintf "mechanism parameter %s=%S: expected %s" key value
       expected)

let int_param params key ~default =
  match List.assoc_opt key params with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> bad key s "an integer")

let assoc_param params ~default =
  match List.assoc_opt "assoc" params with
  | None -> default
  | Some s -> (
    match Ni_cache.associativity_of_string (String.trim s) with
    | Some a -> a
    | None -> bad "assoc" s "direct, direct-nohash, 2-way, or 4-way")

let policy_param params ~default =
  match List.assoc_opt "policy" params with
  | None -> default
  | Some s -> (
    match Replacement.policy_of_string (String.trim s) with
    | Some p -> p
    | None -> bad "policy" s "lru, mru, lfu, mfu, or random")

let limit_param params =
  match List.assoc_opt "limit-mb" params with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some mb -> Some (Utlb_mem.Addr.pages_of_mb mb)
    | None -> bad "limit-mb" s "an integer")

let cache_param params =
  {
    Ni_cache.entries = int_param params "entries" ~default:8192;
    associativity = assoc_param params ~default:Ni_cache.Direct;
  }

(* The three hierarchical mechanisms share every parameter but the
   backstop's. *)
let hier_params params ~backstop =
  {
    Hier_engine.cache = cache_param params;
    prefetch = int_param params "prefetch" ~default:1;
    prepin = int_param params "prepin" ~default:1;
    policy = policy_param params ~default:Replacement.Lru;
    memory_limit_pages = limit_param params;
    backstop;
  }

let () =
  Registry.register ~name:Hier_engine.mechanism
    ~doc:
      "Hierarchical-UTLB with the Shared UTLB-Cache (params: entries, \
       assoc, prefetch, prepin, policy, limit-mb)"
    (fun params ->
      Packed
        ( (module Hier_engine),
          hier_params params ~backstop:Hier_engine.No_backstop ));
  Registry.register ~name:Intr_engine.mechanism
    ~doc:
      "interrupt-based baseline (params: entries, assoc, limit-mb)"
    (fun params ->
      Packed
        ( (module Intr_engine),
          {
            Intr_engine.cache = cache_param params;
            memory_limit_pages = limit_param params;
          } ));
  Registry.register ~name:Pp_engine.mechanism
    ~doc:
      "per-process UTLB tables carved from one SRAM budget (params: \
       budget, processes, policy)"
    (fun params ->
      Packed
        ( (module Pp_engine),
          {
            Pp_engine.sram_budget_entries =
              int_param params "budget" ~default:8192;
            processes = int_param params "processes" ~default:5;
            policy = policy_param params ~default:Replacement.Lru;
          } ));
  Registry.register ~name:Victima_engine.mechanism
    ~doc:
      "Hierarchical-UTLB with an L2 victim store behind the Shared \
       UTLB-Cache (params: entries, assoc, prefetch, prepin, policy, \
       limit-mb, victim-entries)"
    (fun params ->
      Packed
        ( (module Victima_engine),
          hier_params params
            ~backstop:
              (Hier_engine.Victim_store
                 (int_param params "victim-entries" ~default:2048)) ));
  Registry.register ~name:Utopia_engine.mechanism
    ~doc:
      "Hierarchical-UTLB with a hash-constrained RestSeg zone in front \
       of the Shared UTLB-Cache (params: entries, assoc, prefetch, \
       prepin, policy, limit-mb, rest-sets, rest-ways)"
    (fun params ->
      Packed
        ( (module Utopia_engine),
          hier_params params
            ~backstop:
              (Hier_engine.Restseg
                 {
                   sets = int_param params "rest-sets" ~default:2048;
                   ways = int_param params "rest-ways" ~default:4;
                 }) ))
