(* The explicit-state bounded model checker behind [utlbcheck
   explore]. See explore.mli for the algorithm. *)

module Stepper = Utlb.Stepper
module Record = Utlb_trace.Record
module Trace = Utlb_trace.Trace
module Pid = Utlb_mem.Pid

(* {2 Configuration} *)

type config = { scope : Stepper.scope; max_depth : int; budget : int }

let default_config =
  { scope = Stepper.default_scope; max_depth = 400; budget = 200_000 }

(* {2 Results} *)

type truncation = Exhaustive | Depth_capped | Budget_capped

let truncation_label = function
  | Exhaustive -> "exhaustive"
  | Depth_capped -> "depth"
  | Budget_capped -> "budget"

type stats = {
  states : int;
  transitions : int;
  enabled_total : int;
  dpor_prunes : int;
  sleep_prunes : int;
  revisits : int;
  max_depth : int;
  truncation : truncation;
  time_ms : float;
}

let prune_ratio stats =
  if stats.enabled_total = 0 then 0.
  else float_of_int stats.dpor_prunes /. float_of_int stats.enabled_total

type counterexample = {
  code : string;
  pid : int;
  records : Record.t list;
  schedule : string list;
}

type result = {
  label : string;
  semantics : Stepper.semantics;
  findings : Finding.t list;
  counterexamples : counterexample list;
  stats : stats;
}

(* {2 Trace mode} *)

let program_of_records records =
  List.map
    (fun (r : Record.t) ->
      ( Pid.to_int r.pid,
        { Stepper.vpn = r.vpn; npages = r.npages; op = r.op } ))
    records

let program_of_trace trace =
  program_of_records (Array.to_list (Trace.records trace))

(* {2 Counterexample minimization}

   A counterexample must replay as a standard trace: only the Issue
   actions carry trace records, and the UP0x admission violations are
   single-record (UP01/02/03/05) or distinct-pid-prefix (UP04)
   conditions, so the minimized trace keeps exactly the records that
   re-trigger the code under [utlbcheck verify]. Exploration-only
   codes (UP2x) keep every issued record — the interleaving lives in
   the schedule comment. *)

let minimized_records ~code ~pid path =
  let issues =
    List.filter_map
      (function
        | Stepper.Issue { pid; req } -> Some (pid, req)
        | _ -> None)
      path
  in
  let last_of_pid () =
    match List.rev (List.filter (fun (p, _) -> p = pid) issues) with
    | last :: _ -> [ last ]
    | [] -> issues
  in
  let picked =
    match code with
    | "UP01" | "UP02" | "UP03" | "UP05" -> last_of_pid ()
    | "UP04" ->
      let seen = Hashtbl.create 8 in
      let firsts =
        List.filter
          (fun (p, _) ->
            if Hashtbl.mem seen p then false
            else begin
              Hashtbl.add seen p ();
              true
            end)
          issues
      in
      let last = last_of_pid () in
      firsts @ List.filter (fun r -> not (List.memq r firsts)) last
    | _ -> issues
  in
  List.mapi
    (fun i (p, (req : Stepper.request)) ->
      Record.make ~time_us:(float_of_int i) ~pid:(Pid.of_int p) ~vpn:req.vpn
        ~npages:req.npages ~op:req.op)
    picked

let counterexample_lines result ce =
  let header =
    [
      "# utlbcheck explore counterexample";
      Printf.sprintf "# engine: %s  code: %s  pid: %d" result.label ce.code
        ce.pid;
      Printf.sprintf "# schedule (%d steps):" (List.length ce.schedule);
    ]
    @ List.map (fun step -> "#   " ^ step) ce.schedule
  in
  header @ List.map Record.to_string ce.records

(* {2 The search}

   Depth-first search over the stepper's transition graph with:

   - canonical state caching: states are immutable sorted values, so
     the visited table hashes them structurally;
   - sleep sets: an action explored from a state is pushed into the
     sleep set of its later siblings and inherited (filtered by
     independence) by their children — re-exploring a different
     linearisation of the same Mazurkiewicz trace is pruned;
   - a persistent-set heuristic: when some process has a provably
     non-conflicting next step (an interrupt delivery, a table publish
     of a page nobody else touches, ...), only that process is
     advanced, collapsing the interleavings of independent phases.

   A cached state remembers the sleep sets it was explored under and
   is only skipped when a previous exploration was at least as
   permissive (its sleep set a subset of the current one), so caching
   never hides transitions the sleep sets still allow. *)

let dependent scope sem st a b =
  let open Stepper in
  let same_page =
    match (page_of a, page_of b) with
    | Some x, Some y -> x = y
    | _ -> false
  in
  let is_evict = function Evict _ -> true | _ -> false in
  let is_issue = function Issue _ -> true | _ -> false in
  (* Evictions are only possible near a full cache; away from that
     frontier, fetches and activity boundaries commute freely. *)
  let near_full = List.length st.cache + 2 > scope.sets in
  let cache_op x =
    match x with
    | Fetch _ | Evict _ | Unpin _ -> true
    | Complete _ | Issue _ -> (
      (* Under cached = pinned, activity boundaries move the
         protection frontier the NI's victim choice reads. *)
      match sem with
      | Intr _ -> near_full
      | Hier _ | Static _ -> false)
    | _ -> false
  in
  let pin_touch = function
    | Pin { pid; _ } | Unpin { pid; _ } -> Some pid
    | Evict { pid; _ } -> (
      match sem with
      | Intr _ -> Some pid
      | Hier _ | Static _ -> None)
    | _ -> None
  in
  pid_of a = pid_of b
  || same_page
  || (match (pin_touch a, pin_touch b) with
     | Some p, Some q -> p = q
     | _ -> false)
  || (cache_op a && cache_op b
     && (near_full || is_evict a || is_evict b))
  || (is_issue a && is_issue b
     &&
     match sem with
     | Static _ -> true
     | Hier _ | Intr _ -> false)

let is_evict_action = function Stepper.Evict _ -> true | _ -> false

(* Is [a] provably independent of every other enabled action — and of
   everything that could become enabled before [a]'s effects are
   consumed? Safe actions of one process form a singleton persistent
   set: advancing only that process cannot hide any interleaving. *)
let safe_action scope sem st enb a =
  let open Stepper in
  let enabled_matches f = List.exists f enb in
  let no_conflict_on pid vpn =
    not
      (enabled_matches (function
        | Evict { pid = p; vpn = v } | Unpin { pid = p; vpn = v } ->
          (p, v) = (pid, vpn)
        | _ -> false))
  in
  match a with
  | Irq _ | Publish _ -> true
  | Issue _ -> (
    (not (enabled_matches is_evict_action))
    &&
    match scope.program with
    | Some _ -> true
    | None -> (
      match sem with
      | Static _ -> false
      | Hier _ | Intr _ -> true))
  | Pin { pid; _ } -> (
    (match sem with
    | Intr { limit_pages = Some _; _ } -> false
    | _ -> true)
    && not
         (enabled_matches (function
           | Unpin { pid = p; _ } -> p = pid
           | Evict { pid = p; _ } -> (
             match sem with Intr _ -> p = pid | _ -> false)
           | _ -> false)))
  | Fetch { pid; vpn } ->
    List.mem (pid, vpn) st.cache && no_conflict_on pid vpn
  | Use { pid; vpn } -> no_conflict_on pid vpn
  | Complete { pid } -> (
    match sem with
    | Intr _ ->
      (* Retiring moves the eviction-protection frontier, which only
         matters when the cache could actually evict. *)
      List.length st.cache + 2 <= scope.sets
      || not (List.exists (fun (p, _) -> p = pid) st.cache)
    | Hier _ | Static _ -> true)
  | Evict _ | Unpin _ -> false

(* The subset of [enabled] actually expanded: the first process (in
   pid order) whose pending protocol steps are all safe, or the full
   enabled set when no such process exists. *)
let persistent_set scope sem st enb =
  let open Stepper in
  let chain_pids =
    List.sort_uniq compare
      (List.filter_map
         (function
           | Evict _ | Unpin _ -> None
           | a -> Some (pid_of a))
         enb)
  in
  let group pid =
    List.filter
      (fun a ->
        (not (is_evict_action a))
        && (match a with Unpin _ -> false | _ -> true)
        && pid_of a = pid)
      enb
  in
  let rec pick = function
    | [] -> enb
    | pid :: rest ->
      let g = group pid in
      if g <> [] && List.for_all (safe_action scope sem st enb) g then g
      else pick rest
  in
  pick chain_pids

let explore ?(config = default_config) ?label sem =
  let scope = config.scope in
  let label = match label with Some l -> l | None -> Stepper.mechanism sem in
  let visited : (Stepper.state, Stepper.action list list) Hashtbl.t =
    Hashtbl.create 4096
  in
  let found : (string * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let findings = ref [] in
  let counterexamples = ref [] in
  let transitions = ref 0 in
  let enabled_total = ref 0 in
  let dpor_prunes = ref 0 in
  let sleep_prunes = ref 0 in
  let revisits = ref 0 in
  let max_depth_seen = ref 0 in
  let depth_capped = ref false in
  let budget_capped = ref false in
  let t0 = Sys.time () in
  let record_violation path (v : Stepper.violation) =
    if not (Hashtbl.mem found (v.code, v.pid)) then begin
      Hashtbl.replace found (v.code, v.pid) ();
      findings :=
        Finding.v ~context:label ~severity:v.severity ~code:v.code v.message
        :: !findings;
      let chronological = List.rev path in
      counterexamples :=
        {
          code = v.code;
          pid = v.pid;
          records = minimized_records ~code:v.code ~pid:v.pid chronological;
          schedule = List.map Stepper.action_label chronological;
        }
        :: !counterexamples
    end
  in
  (* [sleep] was explored under: skip only if a previous visit was at
     least as permissive. *)
  let covered sleep stored =
    List.exists
      (fun old -> List.for_all (fun a -> List.mem a sleep) old)
      stored
  in
  let rec dfs st sleep depth path =
    if !budget_capped then ()
    else begin
      if depth > !max_depth_seen then max_depth_seen := depth;
      let enb = Stepper.enabled scope sem st in
      if enb = [] then begin
        if not (Hashtbl.mem visited st) then Hashtbl.replace visited st [];
        List.iter (record_violation path)
          (Stepper.terminal_violations scope sem st)
      end
      else begin
        let stored = Hashtbl.find_opt visited st in
        match stored with
        | Some old when covered sleep old -> incr revisits
        | _ ->
          Hashtbl.replace visited st
            (sleep :: Option.value ~default:[] stored);
          enabled_total := !enabled_total + List.length enb;
          if depth >= config.max_depth then depth_capped := true
          else begin
            let expand = persistent_set scope sem st enb in
            let fired = ref 0 in
            let slp = ref sleep in
            List.iter
              (fun a ->
                if !budget_capped then ()
                else if List.mem a !slp then incr sleep_prunes
                else if !transitions >= config.budget then
                  budget_capped := true
                else begin
                  incr transitions;
                  incr fired;
                  let st', viols = Stepper.apply scope sem st a in
                  let path' = a :: path in
                  List.iter (record_violation path') viols;
                  dfs st'
                    (List.filter
                       (fun b -> not (dependent scope sem st a b))
                       !slp)
                    (depth + 1) path';
                  slp := a :: !slp
                end)
              expand;
            dpor_prunes := !dpor_prunes + (List.length enb - !fired)
          end
      end
    end
  in
  dfs (Stepper.initial scope sem) [] 0 [];
  let time_ms = (Sys.time () -. t0) *. 1000. in
  let truncation =
    if !budget_capped then Budget_capped
    else if !depth_capped then Depth_capped
    else Exhaustive
  in
  {
    label;
    semantics = sem;
    findings = Finding.by_severity (List.rev !findings);
    counterexamples = List.rev !counterexamples;
    stats =
      {
        states = Hashtbl.length visited;
        transitions = !transitions;
        enabled_total = !enabled_total;
        dpor_prunes = !dpor_prunes;
        sleep_prunes = !sleep_prunes;
        revisits = !revisits;
        max_depth = !max_depth_seen;
        truncation;
        time_ms;
      };
  }

(* {2 Witness search}

   [utlbcheck bound --witness] asks for a concrete schedule realizing
   the (scoped) pinned-population bound. This is a reachability query,
   not a violation sweep, so the DPOR machinery above is wrong for it:
   sleep sets and persistent sets preserve violations, not every
   intermediate global state, and the peak population lives exactly in
   the intermediate states. We run a plain bounded DFS instead, with

   - the visited table only (the pinned population is a function of
     the canonical state, so revisits can be skipped soundly);
   - a greedy action order (population-raising actions first) so the
     peak is found early; and
   - branch-and-bound: the search stops the moment the target is
     reached. *)

type witness = {
  target : int;
  peak : int;
  confirmed : bool;  (** [peak >= target]. *)
  schedule : string list;
  records : Record.t list;
  states : int;
  transitions : int;
}

(* Raise the population before spending budget anywhere else. *)
let witness_rank = function
  | Stepper.Pin _ -> 0
  | Stepper.Issue _ -> 1
  | Stepper.Publish _ | Stepper.Fetch _ | Stepper.Irq _ -> 2
  | Stepper.Use _ -> 3
  | Stepper.Complete _ -> 4
  | Stepper.Evict _ -> 5
  | Stepper.Unpin _ -> 6

let pinned_witness ?(config = default_config) ~target sem =
  let scope = config.scope in
  let visited : (Stepper.state, unit) Hashtbl.t = Hashtbl.create 4096 in
  let transitions = ref 0 in
  let best = ref (-1) in
  let best_path = ref [] in
  let stop = ref false in
  let rec dfs st depth path =
    if !stop || Hashtbl.mem visited st then ()
    else begin
      Hashtbl.replace visited st ();
      let pinned = List.length st.Stepper.pins in
      if pinned > !best then begin
        best := pinned;
        best_path := path;
        if pinned >= target then stop := true
      end;
      if (not !stop) && depth < config.max_depth then
        List.iter
          (fun a ->
            if (not !stop) && !transitions < config.budget then begin
              incr transitions;
              let st', _ = Stepper.apply scope sem st a in
              dfs st' (depth + 1) (a :: path)
            end)
          (List.stable_sort
             (fun a b -> compare (witness_rank a) (witness_rank b))
             (Stepper.enabled scope sem st))
    end
  in
  dfs (Stepper.initial scope sem) 0 [];
  let chronological = List.rev !best_path in
  let issues =
    List.filter_map
      (function
        | Stepper.Issue { pid; req } -> Some (pid, req)
        | _ -> None)
      chronological
  in
  {
    target;
    peak = max 0 !best;
    confirmed = !best >= target;
    schedule = List.map Stepper.action_label chronological;
    records =
      List.mapi
        (fun i (p, (req : Stepper.request)) ->
          Record.make ~time_us:(float_of_int i) ~pid:(Pid.of_int p)
            ~vpn:req.vpn ~npages:req.npages ~op:req.op)
        issues;
    states = Hashtbl.length visited;
    transitions = !transitions;
  }

let witness_lines ~label w =
  [
    "# utlbcheck bound witness";
    Printf.sprintf "# engine: %s  target: %d  peak: %d  status: %s" label
      w.target w.peak
      (if w.confirmed then "CONFIRMED" else "PLAUSIBLE");
    Printf.sprintf "# %d states, %d transitions" w.states w.transitions;
    Printf.sprintf "# schedule (%d steps):" (List.length w.schedule);
  ]
  @ List.map (fun step -> "#   " ^ step) w.schedule
  @ List.map Record.to_string w.records

let pp_stats ppf (result : result) =
  let s = result.stats in
  Format.fprintf ppf
    "%s: %d states, %d transitions, %d/%d interleavings pruned (%.1f%%), \
     %d sleep-set prunes, %d revisits, depth %d, %.1f ms%s"
    result.label s.states s.transitions s.dpor_prunes s.enabled_total
    (100. *. prune_ratio s)
    s.sleep_prunes s.revisits s.max_depth s.time_ms
    (match s.truncation with
    | Exhaustive -> ""
    | t -> Printf.sprintf " [truncated: %s cap]" (truncation_label t))
