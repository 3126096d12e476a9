(* The symbolic worst-case analyzer behind [utlbcheck bound]. See
   bound.mli for the abstract domain and the soundness argument. *)

module Stepper = Utlb.Stepper
module Cost = Utlb.Stepper.Cost
module Cost_model = Utlb.Cost_model
module Plan = Utlb_fault.Plan
module Tenant = Utlb_tenant.Tenant

(* {2 SLO specs} *)

type slo = { lat_us : float option; pinned : int option }

let no_slo = { lat_us = None; pinned = None }

let slo_to_string slo =
  match
    List.filter_map
      (fun x -> x)
      [
        Option.map (Printf.sprintf "lat_us<=%g") slo.lat_us;
        Option.map (Printf.sprintf "pinned<=%d") slo.pinned;
      ]
  with
  | [] -> "none"
  | parts -> String.concat "," parts

(* [cut ~sep s] splits [s] at the first occurrence of [sep]. *)
let cut ~sep s =
  let n = String.length sep in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = sep then
      Some (String.sub s 0 i, String.sub s (i + n) (String.length s - i - n))
    else find (i + 1)
  in
  find 0

let slo_of_string spec =
  let parts =
    String.split_on_char ','
      (String.concat "," (String.split_on_char ';' spec))
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty SLO spec (expected lat_us<=N,pinned<=M)"
  else
    List.fold_left
      (fun acc part ->
        Result.bind acc (fun slo ->
            match cut ~sep:"<=" part with
            | None ->
              Error
                (Printf.sprintf "SLO term %S is not KEY<=VALUE (expected \
                                 lat_us<=N or pinned<=M)" part)
            | Some (key, value) -> (
              match (String.trim key, String.trim value) with
              | "lat_us", v -> (
                match float_of_string_opt v with
                | Some f when f >= 0. && Float.is_finite f ->
                  Ok { slo with lat_us = Some f }
                | _ ->
                  Error
                    (Printf.sprintf
                       "SLO latency budget %S is not a non-negative number" v))
              | "pinned", v -> (
                match int_of_string_opt v with
                | Some n when n >= 0 -> Ok { slo with pinned = Some n }
                | _ ->
                  Error
                    (Printf.sprintf
                       "SLO pinned budget %S is not a non-negative integer" v))
              | k, _ ->
                Error
                  (Printf.sprintf
                     "unknown SLO key %S (expected lat_us or pinned)" k))))
      (Ok no_slo) parts

(* {2 Bounds} *)

type pinned_bound = {
  per_process : int;
  processes : int;
  total : int;
  bounded : bool;
}

type tenant_bound = {
  tenant : string;
  quota : int option;
  pinned_cap : int;
  headroom : int;
}

type path_cost = { path : string; us : float }

type t = {
  label : string;
  semantics : Stepper.semantics;
  npages : int;
  paths : path_cost list;
  lat_us : float;
  fault_us : float;
  pinned : pinned_bound;
  tenants : tenant_bound list;
  findings : Finding.t list;
}

(* One virtual address space: the translation table's vpn range. No
   population can exceed it, so it is the sound fallback bound when no
   memory limit binds. *)
let address_space = Utlb.Translation_table.max_vpn + 1

(* Retry chains longer than a second per translation are treated as
   unbounded for SLO purposes (UP41). *)
let retry_ceiling_us = 1_000_000.

(* Worst-case surcharge one NI miss walk absorbs from the fault plan:
   the full exponential backoff chain of a failing entry-fetch DMA
   over the whole retry budget, the interrupt-path fallback once the
   budget is exhausted, one spurious invalidation (a forced second
   walk), and one table swap-in (an interrupt plus the re-walk). *)
let walk_fault_us model (p : Plan.t) ~walk_base =
  let active prob = prob > 0. in
  (if active p.dma_fail then
     Plan.backoff_us p ~attempts:p.dma_retries
     +. Cost_model.intr_us model
     +. Cost_model.kernel_pin_us model
   else 0.)
  +. (if active p.cache_invalidate then walk_base else 0.)
  +. if active p.table_swap then Cost_model.intr_us model +. walk_base else 0.

(* Worst-case surcharge one interrupt dispatch absorbs: every re-issue
   of a timed-out interrupt costs a full dispatch again. *)
let irq_fault_us model (p : Plan.t) =
  if p.irq_timeout > 0. && p.irq_retries > 0 then
    Float.of_int p.irq_retries *. Cost_model.intr_us model
  else 0.

let step_us model ~walk_fault ~irq_fault = function
  | Cost.Check n ->
    (* The scalar user check and the worst-case bitmap check are both
       reachable; a sound bound takes whichever is larger. *)
    Float.max
      (Cost_model.user_check_us model)
      (Cost_model.check_max_us model ~pages:(max 1 n))
  | Cost.Pin n -> Cost_model.pin_us model ~pages:(max 1 n)
  | Cost.Unpin n -> Cost_model.unpin_us model ~pages:(max 1 n)
  | Cost.Intr -> Cost_model.intr_us model +. irq_fault
  | Cost.Kernel_pin -> Cost_model.kernel_pin_us model
  | Cost.Kernel_unpin -> Cost_model.kernel_unpin_us model
  | Cost.Ni_hit -> Cost_model.ni_hit_us model
  | Cost.Ni_direct -> Cost_model.ni_direct_us model
  | Cost.Walk n -> Cost_model.ni_miss_us model ~entries:(max 1 n) +. walk_fault
  | Cost.Dma n -> Cost_model.dma_us model ~entries:(max 1 n)

let prepin_of = function
  | Stepper.Hier { prepin; _ } -> max 1 prepin
  | Stepper.Intr _ | Stepper.Static _ -> 1

let pow2_floor n = if n < 1 then 0 else 1 lsl (Float.to_int (Float.log2 (Float.of_int n)))

let analyze ?(model = Cost_model.default) ?(faults = Plan.empty) ?tenants
    ?(slo = no_slo) ?(npages = 32) ?(processes = 8) ?label
    (Utlb.Engine_intf.Packed ((module E), config)) =
  let npages = max 1 npages in
  let processes = max 1 processes in
  let label = Option.value ~default:E.mechanism label in
  let sem = E.stepper config in
  let profile = E.cost_paths config ~npages in
  let findings = ref [] in
  let emit ?(severity = Finding.Error) code fmt =
    Format.kasprintf
      (fun message ->
        findings := Finding.v ~context:label ~severity ~code message :: !findings)
      fmt
  in
  (* (a) Latency: price every enumerated path; the fault plan's worst
     chain loads onto walk and interrupt steps. *)
  let walk_base =
    Cost_model.ni_miss_us model ~entries:(max 1 profile.Cost.prefetch)
  in
  let walk_fault = walk_fault_us model faults ~walk_base in
  let irq_fault = irq_fault_us model faults in
  let paths =
    List.map
      (fun (p : Cost.path) ->
        {
          path = p.Cost.path;
          us =
            List.fold_left
              (fun acc s -> acc +. step_us model ~walk_fault ~irq_fault s)
              0. p.Cost.steps;
        })
      profile.Cost.paths
    |> List.stable_sort (fun a b -> compare b.us a.us)
  in
  let lat_us = match paths with [] -> 0. | worst :: _ -> worst.us in
  let fault_us = walk_fault +. irq_fault in
  if walk_fault > retry_ceiling_us || irq_fault > retry_ceiling_us then
    emit "UP41"
      "unbounded retry cost: the fault plan's worst-case retry/backoff \
       chain adds %.0f µs to a single translation (over the %.0f µs \
       sanity ceiling); a retrying NI can stall a transfer indefinitely"
      (Float.max walk_fault irq_fault)
      retry_ceiling_us;
  (* (b) Pinned population. Per process the stepper's admission logic
     admits at most max(capacity, span) pages: population exceeds the
     capacity only while every pinned page is inside the in-flight
     span (the UP01 break), and the pre-pin window widens that span to
     npages + prepin - 1. Without a limit the bound degrades to the
     address space. *)
  let cap = Stepper.capacity sem in
  let span = npages + prepin_of sem - 1 in
  let bounded = cap < max_int in
  let per_process =
    if bounded then min address_space (max cap span) else address_space
  in
  let pinned =
    { per_process; processes; total = per_process * processes; bounded }
  in
  if bounded && cap >= address_space then
    emit ~severity:Finding.Warning "UP44"
      "dead configuration: the %d-page memory limit is at least the whole \
       %d-page virtual address space, so the limit (and its reclaim path) \
       can never be reached"
      cap address_space;
  (* (c) Cache geometry vs the worst-case eviction chain. *)
  let entries = profile.Cost.cache_entries in
  (if npages > entries then
     match sem with
     | Stepper.Intr _ ->
       emit "UP43"
         "worst-case eviction chain exceeds the cache: a %d-page buffer \
          is wider than the %d-entry cache, and under cached = pinned \
          the self-conflict evictions unpin in-flight pages mid-transfer"
         npages entries
     | Stepper.Hier _ | Stepper.Static _ ->
       emit ~severity:Finding.Warning "UP43"
         "worst-case eviction chain exceeds the cache: a %d-page buffer \
          must evict its own in-flight entries within one translation \
          (%d entries)"
         npages entries
   else if profile.Cost.prefetch > entries then
     emit ~severity:Finding.Warning "UP43"
       "worst-case eviction chain exceeds the cache: the %d-entry \
        prefetch window is wider than the %d-entry cache, so one miss's \
        fetched entries evict each other"
       profile.Cost.prefetch entries);
  (* (d) Tenant quota headroom, symbolically over the tenancy config. *)
  let tenant_bounds =
    match tenants with
    | None -> []
    | Some (cfg : Tenant.config) ->
      List.concat_map
        (fun (policy : Tenant.policy) ->
          let pids = max 1 (List.length policy.Tenant.pids) in
          let unclamped = per_process * pids in
          let pinned_cap =
            match policy.Tenant.quota with
            | Some q -> min (max 0 q) unclamped
            | None -> unclamped
          in
          (match policy.Tenant.quota with
          | Some q when q < npages ->
            emit "UP42"
              "tenant starvation: tenant %s's pin quota of %d page(s) is \
               below one maximal %d-page buffer, so a full-width request \
               is denied forever"
              policy.Tenant.name q npages
          | Some q when q >= unclamped && unclamped < address_space * pids ->
            emit ~severity:Finding.Warning "UP44"
              "dead configuration: tenant %s's pin quota of %d page(s) is \
               at least its %d-page population bound, so the quota can \
               never bind"
              policy.Tenant.name q unclamped
          | _ -> ());
          (match (cfg.Tenant.mode, policy.Tenant.share) with
          | Tenant.Strict, Some share ->
            let window =
              pow2_floor (Float.to_int (Float.of_int entries *. share))
            in
            if window < npages then
              emit ~severity:Finding.Warning "UP43"
                "worst-case eviction chain exceeds tenant %s's strict \
                 window: a %d-page buffer is wider than the ~%d-entry \
                 partition its %.2f share rounds to"
                policy.Tenant.name npages window share
          | _ -> ());
          [
            {
              tenant = policy.Tenant.name;
              quota = policy.Tenant.quota;
              pinned_cap;
              headroom = pinned_cap - npages;
            };
          ])
        (Array.to_list cfg.Tenant.policies)
  in
  (* (e) The SLO gate. *)
  (match slo.lat_us with
  | Some budget when lat_us > budget ->
    emit "UP40"
      "SLO violation: the sound worst-case translation latency is %.1f µs \
       (path %s, %d-page buffer), over the %.1f µs budget"
      lat_us
      (match paths with [] -> "-" | p :: _ -> p.path)
      npages budget
  | _ -> ());
  (match slo.pinned with
  | Some budget when pinned.total > budget ->
    emit "UP40"
      "SLO violation: the sound worst-case pinned population is %d \
       page(s) (%d per process x %d processes%s), over the %d-page budget"
      pinned.total pinned.per_process pinned.processes
      (if bounded then "" else "; no memory limit binds, so the bound is \
                               the whole address space")
      budget
  | _ -> ());
  {
    label;
    semantics = sem;
    npages;
    paths;
    lat_us;
    fault_us;
    pinned;
    tenants = tenant_bounds;
    findings = Finding.by_severity (List.rev !findings);
  }

(* {2 Witness targets} *)

let witness_target (scope : Stepper.scope) t =
  let cap = Stepper.capacity t.semantics in
  let pages = max 1 scope.Stepper.pages in
  let per_proc = min pages (if cap < max_int then max cap pages else pages) in
  max 1 scope.Stepper.procs * per_proc

(* {2 Rendering} *)

let pp ppf t =
  Format.fprintf ppf "bound %s: worst-case lookup %.1f us (path %s" t.label
    t.lat_us
    (match t.paths with [] -> "-" | p :: _ -> p.path);
  if t.fault_us > 0. then
    Format.fprintf ppf ", incl. %.1f us fault surcharge" t.fault_us;
  Format.fprintf ppf "), pinned <= %d/process" t.pinned.per_process;
  if not t.pinned.bounded then Format.fprintf ppf " (no limit binds)";
  Format.fprintf ppf " x %d processes = %d, npages <= %d" t.pinned.processes
    t.pinned.total t.npages;
  List.iter
    (fun tb ->
      Format.fprintf ppf "@\n  tenant %s: pinned <= %d%s, headroom %d"
        tb.tenant tb.pinned_cap
        (match tb.quota with
        | Some q -> Printf.sprintf " (quota %d)" q
        | None -> " (no quota)")
        tb.headroom)
    t.tenants

let pp_json ppf t =
  let e = Finding.json_escape in
  Format.fprintf ppf
    "{\"label\":\"%s\",\"mechanism\":\"%s\",\"npages\":%d,\"lat_us\":%.3f,\
     \"worst_path\":\"%s\",\"fault_us\":%.3f"
    (e t.label)
    (e (Stepper.mechanism t.semantics))
    t.npages t.lat_us
    (match t.paths with [] -> "-" | p :: _ -> e p.path)
    t.fault_us;
  Format.fprintf ppf ",\"paths\":[%s]"
    (String.concat ","
       (List.map
          (fun p -> Printf.sprintf "{\"path\":\"%s\",\"us\":%.3f}" (e p.path) p.us)
          t.paths));
  Format.fprintf ppf
    ",\"pinned\":{\"per_process\":%d,\"processes\":%d,\"total\":%d,\
     \"bounded\":%b}"
    t.pinned.per_process t.pinned.processes t.pinned.total t.pinned.bounded;
  Format.fprintf ppf ",\"tenants\":[%s]"
    (String.concat ","
       (List.map
          (fun tb ->
            Printf.sprintf
              "{\"tenant\":\"%s\",%s\"pinned_cap\":%d,\"headroom\":%d}"
              (e tb.tenant)
              (match tb.quota with
              | Some q -> Printf.sprintf "\"quota\":%d," q
              | None -> "")
              tb.pinned_cap tb.headroom)
          t.tenants));
  Format.fprintf ppf ",\"findings\":%a}" Finding.pp_json_list t.findings

let pp_json_list ppf ts =
  Format.fprintf ppf "[";
  List.iteri
    (fun i t ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@\n  %a" pp_json t)
    ts;
  if ts <> [] then Format.fprintf ppf "@\n";
  Format.fprintf ppf "]"
