module Ni_cache = Utlb.Ni_cache
module Cost_model = Utlb.Cost_model

let is_power_of_two n = n > 0 && n land (n - 1) = 0

(* The operand sizes the paper reports costs at; used to sample built
   cost models and to cross-compare tables with different anchors. *)
let paper_sizes = [ 1; 2; 4; 8; 16; 32 ]

let find ?context ?severity ~code fmt = Finding.vf ?context ?severity ~code fmt

(* --- Cache geometry ------------------------------------------------- *)

let lint_geometry ?context (cache : Ni_cache.config) =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  let ways = Ni_cache.ways cache.associativity in
  if cache.entries <= 0 then
    add
      (find ?context ~code:"UC101" "cache entry count must be positive, got %d"
         cache.entries)
  else begin
    if cache.entries mod ways <> 0 then
      add
        (find ?context ~code:"UC102"
           "%d entries is not a multiple of the %s way count (%d)"
           cache.entries
           (Ni_cache.associativity_name cache.associativity)
           ways);
    let sets = cache.entries / ways in
    if cache.entries mod ways = 0 && not (is_power_of_two sets) then
      add
        (find ?context ~code:"UC103"
           "%d entries / %d ways gives %d sets, which is not a power of two \
            (the NI index hash requires one)"
           cache.entries ways sets);
    if is_power_of_two cache.entries
       && (cache.entries < 1024 || cache.entries > 16384) then
      add
        (find ?context ~severity:Finding.Info ~code:"UC104"
           "%d entries is outside the paper's 1K-16K sweep; results will not \
            be comparable to the published figures"
           cache.entries)
  end;
  List.rev !acc

(* --- Engine parameters ---------------------------------------------- *)

let lint_window ?context ~entries ~prefetch ~prepin ~memory_limit_pages () =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  if prefetch < 1 then
    add (find ?context ~code:"UC110" "prefetch must be >= 1, got %d" prefetch)
  else if entries > 0 && prefetch > entries then
    add
      (find ?context ~code:"UC111"
         "prefetch of %d entries exceeds the %d-entry cache; fetched \
          translations would evict each other within a single miss"
         prefetch entries);
  if prepin < 1 then
    add (find ?context ~code:"UC112" "prepin must be >= 1, got %d" prepin)
  else begin
    if entries > 0 && prepin > entries then
      add
        (find ?context ~severity:Finding.Warning ~code:"UC113"
           "pre-pin window of %d pages exceeds the %d-entry cache; most \
            pre-pinned pages can never be cached on the NI"
           prepin entries);
    if prepin > Utlb_mem.Page_table.max_vpn + 1 then
      add
        (find ?context ~code:"UC114"
           "pre-pin window of %d pages exceeds the %d-page virtual address \
            space"
           prepin
           (Utlb_mem.Page_table.max_vpn + 1))
  end;
  (match memory_limit_pages with
  | None -> ()
  | Some limit ->
    if limit <= 0 then
      add
        (find ?context ~code:"UC120"
           "per-process memory limit must be positive, got %d pages" limit)
    else if prepin >= 1 && limit < prepin then
      add
        (find ?context ~code:"UC121"
           "per-process memory limit of %d pages is smaller than one %d-page \
            pre-pin window; every check miss would evict the window it just \
            pinned"
           limit prepin));
  List.rev !acc

let lint_hier ?context (config : Utlb.Hier_engine.config) =
  lint_geometry ?context config.cache
  @ lint_window ?context ~entries:config.cache.entries
      ~prefetch:config.prefetch ~prepin:config.prepin
      ~memory_limit_pages:config.memory_limit_pages ()

let lint_intr ?context (config : Utlb.Intr_engine.config) =
  lint_geometry ?context config.cache
  @ lint_window ?context ~entries:config.cache.entries ~prefetch:1 ~prepin:1
      ~memory_limit_pages:config.memory_limit_pages ()

let lint_pp ?context (config : Utlb.Pp_engine.config) =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  if config.processes <= 0 then
    add
      (find ?context ~code:"UC130"
         "per-process engine needs at least one process, got %d"
         config.processes);
  if config.sram_budget_entries <= 0 then
    add
      (find ?context ~code:"UC131" "SRAM budget must be positive, got %d \
                                    entries"
         config.sram_budget_entries);
  if config.processes > 0 && config.sram_budget_entries > 0 then begin
    let per = config.sram_budget_entries / config.processes in
    if per = 0 then
      add
        (find ?context ~code:"UC132"
           "SRAM budget of %d entries divides to zero entries per process \
            across %d processes"
           config.sram_budget_entries config.processes)
    else if config.sram_budget_entries mod config.processes <> 0 then
      add
        (find ?context ~severity:Finding.Info ~code:"UC133"
           "SRAM budget of %d entries does not divide evenly across %d \
            processes; %d entries are wasted"
           config.sram_budget_entries config.processes
           (config.sram_budget_entries mod config.processes))
  end;
  List.rev !acc

(* --- Cost tables ----------------------------------------------------- *)

let lint_cost_anchors ?context ~name anchors =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  (match anchors with
  | [] -> add (find ?context ~code:"UC140" "%s has no anchor points" name)
  | _ ->
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) anchors in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (size, cost) ->
        if Hashtbl.mem seen size then
          add
            (find ?context ~code:"UC141" "%s has duplicate anchor at size %d"
               name size)
        else Hashtbl.replace seen size ();
        if size <= 0 then
          add
            (find ?context ~code:"UC142"
               "%s has a non-positive anchor size %d" name size);
        if cost < 0.0 then
          add
            (find ?context ~code:"UC143" "%s(%d) is negative: %g us" name size
               cost))
      sorted;
    let rec monotone = function
      | (s1, c1) :: ((s2, c2) :: _ as rest) ->
        if s1 <> s2 && c2 < c1 then
          add
            (find ?context ~code:"UC144"
               "%s is not monotone: cost drops from %g us at size %d to %g \
                us at size %d"
               name c1 s1 c2 s2);
        monotone rest
      | _ -> ()
    in
    monotone sorted);
  List.rev !acc

(* Lints shared between a parsed config's scalars+anchors and a built
   Cost_model.t: [scalar name value] for the flat costs, [table name]
   returning a total-cost function over sizes (or None when the table
   was itself invalid and comparisons would be nonsense). *)
let lint_cost_relations ?context ~scalars ~table () =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  List.iter
    (fun (name, value) ->
      if value < 0.0 then
        add
          (find ?context ~code:"UC150" "%s is negative: %g us" name value))
    scalars;
  let scalar name = List.assoc name scalars in
  let ni_hit = scalar "ni_hit_us" in
  (match table "ni_miss" with
  | None -> ()
  | Some ni_miss ->
    let miss1 = ni_miss 1 in
    if ni_hit >= miss1 && miss1 >= 0.0 then
      add
        (find ?context ~code:"UC151"
           "NI-cache hit (%g us) costs at least as much as a host \
            translation fetch (%g us); the cache can never win and every \
            paper result inverts"
           ni_hit miss1);
    (match table "dma" with
    | None -> ()
    | Some dma ->
      List.iter
        (fun n ->
          if dma n > ni_miss n then
            add
              (find ?context ~code:"UC152"
                 "dma(%d) = %g us exceeds the total miss cost ni_miss(%d) = \
                  %g us it is part of"
                 n (dma n) n (ni_miss n)))
        paper_sizes));
  (match table "check_max" with
  | None -> ()
  | Some check_max ->
    let check_min = scalar "check_min_us" in
    if check_min > check_max 1 then
      add
        (find ?context ~code:"UC153"
           "best-case check (%g us) exceeds the worst-case check of a \
            single page (%g us)"
           check_min (check_max 1)));
  let user_check = scalar "user_check_us" in
  let kernel_pin = scalar "kernel_pin_us" in
  if user_check >= kernel_pin && kernel_pin >= 0.0 then
    add
      (find ?context ~severity:Finding.Warning ~code:"UC154"
         "user-level check (%g us) costs as much as a kernel pin (%g us); \
          the UTLB premise of cheap user-level checks does not hold"
         user_check kernel_pin);
  let intr = scalar "intr_us" in
  if intr < ni_hit && intr >= 0.0 then
    add
      (find ?context ~severity:Finding.Warning ~code:"UC155"
         "interrupt dispatch (%g us) is cheaper than an NI cache hit (%g \
          us); the interrupt baseline would dominate by construction"
         intr ni_hit);
  List.rev !acc

let lint_cost_model ?context model =
  let sample name f =
    lint_cost_anchors ?context ~name
      (List.map (fun n -> (n, f ~pages:n)) paper_sizes)
  in
  let sample_entries name f =
    lint_cost_anchors ?context ~name
      (List.map (fun n -> (n, f ~entries:n)) paper_sizes)
  in
  let anchors =
    sample "pin_table" (Cost_model.pin_us model)
    @ sample "unpin_table" (Cost_model.unpin_us model)
    @ sample_entries "ni_miss_table" (Cost_model.ni_miss_us model)
    @ sample_entries "dma_table" (Cost_model.dma_us model)
    @ sample "check_max_table" (Cost_model.check_max_us model)
  in
  let scalars =
    [
      ("user_check_us", Cost_model.user_check_us model);
      ("ni_hit_us", Cost_model.ni_hit_us model);
      ("ni_direct_us", Cost_model.ni_direct_us model);
      ("intr_us", Cost_model.intr_us model);
      ("kernel_pin_us", Cost_model.kernel_pin_us model);
      ("kernel_unpin_us", Cost_model.kernel_unpin_us model);
      ("check_min_us", Cost_model.check_min_us model ~pages:1);
    ]
  in
  let table = function
    | "ni_miss" -> Some (fun n -> Cost_model.ni_miss_us model ~entries:n)
    | "dma" -> Some (fun n -> Cost_model.dma_us model ~entries:n)
    | "check_max" -> Some (fun n -> Cost_model.check_max_us model ~pages:n)
    | _ -> None
  in
  anchors @ lint_cost_relations ?context ~scalars ~table ()

(* --- Observability metric namespaces -------------------------------- *)

let lint_metrics ?context registry =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  List.iter
    (fun (name, wanted) ->
      add
        (find ?context ~code:"UC160"
           "metric %S re-requested as %s, clashing with its existing \
            registration; the second collector is detached and its \
            observations are silently lost"
           name wanted))
    (Utlb_obs.Metrics.collisions registry);
  List.iter
    (fun name ->
      if not (String.contains name '/') then
        add
          (find ?context ~severity:Finding.Warning ~code:"UC161"
             "metric %S is not namespaced as component/name; it cannot be \
              attributed to a trace lane"
             name))
    (Utlb_obs.Metrics.names registry);
  List.rev !acc

(* --- Fault plans ------------------------------------------------------ *)

let lint_faults ?context spec =
  match Utlb_fault.Plan.parse spec with
  | Error msg -> [ find ?context ~code:"UC170" "%s" msg ]
  | Ok plan ->
    List.map
      (fun (key, problem) ->
        (* [validate] phrases probability problems as "probability ...";
           everything else is a budget or duration out of range. *)
        let code =
          if String.length problem >= 11
             && String.equal (String.sub problem 0 11) "probability"
          then "UC171"
          else "UC172"
        in
        find ?context ~code "fault spec: %s: %s" key problem)
      (Utlb_fault.Plan.validate plan)

(* --- Whole parsed configurations ------------------------------------ *)

let lint_config (config : Config_file.t) =
  let context = config.source in
  let engine_findings =
    match config.engine with
    | Utlb -> lint_hier ~context (Config_file.hier_config config)
    | Intr -> lint_intr ~context (Config_file.intr_config config)
    | Per_process -> lint_pp ~context (Config_file.pp_config config)
  in
  let anchor_findings =
    lint_cost_anchors ~context ~name:"pin_table" config.pin_table
    @ lint_cost_anchors ~context ~name:"unpin_table" config.unpin_table
    @ lint_cost_anchors ~context ~name:"ni_miss_table" config.ni_miss_table
    @ lint_cost_anchors ~context ~name:"dma_table" config.dma_table
    @ lint_cost_anchors ~context ~name:"check_max_table"
        config.check_max_table
  in
  let scalars =
    [
      ("user_check_us", config.user_check_us);
      ("ni_hit_us", config.ni_hit_us);
      ("ni_direct_us", config.ni_direct_us);
      ("intr_us", config.intr_us);
      ("kernel_pin_us", config.kernel_pin_us);
      ("kernel_unpin_us", config.kernel_unpin_us);
      ("check_min_us", config.check_min_us);
    ]
  in
  (* Only cross-compare tables that are individually well-formed;
     Cost_table.create would raise on the rest, and relations over a
     broken table are noise next to its UC14x finding. *)
  let usable anchors name =
    if Finding.has_errors (lint_cost_anchors ~name anchors) then None
    else
      let t = Utlb_sim.Cost_table.create anchors in
      Some (Utlb_sim.Cost_table.eval t)
  in
  let table = function
    | "ni_miss" -> usable config.ni_miss_table "ni_miss_table"
    | "dma" -> usable config.dma_table "dma_table"
    | "check_max" -> usable config.check_max_table "check_max_table"
    | _ -> None
  in
  let fault_findings =
    match config.faults with
    | None -> []
    | Some spec -> lint_faults ~context spec
  in
  engine_findings @ anchor_findings
  @ lint_cost_relations ~context ~scalars ~table ()
  @ fault_findings

let lint_defaults () =
  lint_hier ~context:"Hier_engine.default_config"
    Utlb.Hier_engine.default_config
  @ lint_intr ~context:"Intr_engine.default_config"
      Utlb.Intr_engine.default_config
  @ lint_pp ~context:"Pp_engine.default_config" Utlb.Pp_engine.default_config
  @ lint_cost_model ~context:"Cost_model.default" Cost_model.default
  @ lint_config { Config_file.default with source = "Config_file.default" }
  @
  (* The standard observability schema must register collision-free and
     be idempotent (a scope attaching to an already-populated registry
     must not detach any collector). *)
  let registry = Utlb_obs.Metrics.create () in
  Utlb_obs.Scope.preregister registry;
  Utlb_obs.Scope.preregister registry;
  lint_metrics ~context:"Scope.preregister" registry
