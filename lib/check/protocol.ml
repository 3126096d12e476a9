module Record = Utlb_trace.Record
module Trace = Utlb_trace.Trace
module Workloads = Utlb_trace.Workloads
module Stepper = Utlb.Stepper

let defaults =
  List.map
    (fun engine ->
      Utlb.Sim_driver.stepper
        (Config_file.packed { Config_file.default with engine }))
    [ Config_file.Utlb; Config_file.Intr; Config_file.Per_process ]

(* {2 Abstract state} *)

type page = Garbage | Pinned of int | Unpinned | Top

type per_pid = {
  mutable epoch : int;
      (* Bumping the epoch lazily demotes every [Pinned] entry written
         under an older epoch to [Top] — the capacity clamp when a
         record may force replacement of previously pinned pages. *)
  pages : (int, int * page) Hashtbl.t;  (* vpn -> (epoch, state) *)
  mutable lo : int;
  mutable hi : int;
}

type state = {
  sem : Stepper.semantics;
  procs : (int, per_pid) Hashtbl.t;
  emitted : (string * int, unit) Hashtbl.t;
      (* One finding per (code, pid): the first offending record
         carries the report; repeats of the same break add noise, not
         information. *)
}

let init sem = { sem; procs = Hashtbl.create 8; emitted = Hashtbl.create 8 }

let per_pid state pid =
  match Hashtbl.find_opt state.procs pid with
  | Some p -> p
  | None ->
    let p = { epoch = 0; pages = Hashtbl.create 64; lo = 0; hi = 0 } in
    Hashtbl.add state.procs pid p;
    p

let page_state state ~pid ~vpn =
  match Hashtbl.find_opt state.procs pid with
  | None -> Garbage
  | Some p -> (
    match Hashtbl.find_opt p.pages vpn with
    | None -> Garbage
    | Some (epoch, (Pinned _ as pg)) -> if epoch < p.epoch then Top else pg
    | Some (_, pg) -> pg)

let pinned_interval state ~pid =
  match Hashtbl.find_opt state.procs pid with
  | None -> (0, 0)
  | Some p -> (p.lo, p.hi)

let set_page p vpn pg = Hashtbl.replace p.pages vpn (p.epoch, pg)

let max_vpn = Utlb.Translation_table.max_vpn

let step state ~line (r : Record.t) =
  let pid = Utlb_mem.Pid.to_int r.pid in
  let n = r.npages in
  let findings =
    Stepper.admission state.sem
      ~known:(Hashtbl.mem state.procs pid)
      ~distinct:(Hashtbl.length state.procs) ~pid
      { Stepper.vpn = r.vpn; npages = n; op = r.op }
    |> List.filter_map (fun (v : Stepper.violation) ->
           if Hashtbl.mem state.emitted (v.code, pid) then None
           else begin
             Hashtbl.replace state.emitted (v.code, pid) ();
             Some
               (Finding.v ~line ~severity:v.severity ~code:v.code v.message)
           end)
  in
  (* Lattice update: the request span ends pinned; if its admission may
     force replacement, previously pinned pages become possible victims
     ([Top]) via an epoch bump. *)
  let p = per_pid state pid in
  let cap = Stepper.capacity state.sem in
  let extra =
    match state.sem with
    | Stepper.Hier { prepin; _ } -> max 0 (prepin - 1)
    | Stepper.Intr _ | Stepper.Static _ -> 0
  in
  let total = n + extra in
  if p.hi + total > cap then begin
    p.epoch <- p.epoch + 1;
    p.lo <- 0
  end;
  let hi_cap = max cap total in
  p.hi <- min (p.hi + total) hi_cap;
  p.lo <- max p.lo n;
  let last = min (r.vpn + n - 1) max_vpn in
  for vpn = r.vpn to last do
    match Hashtbl.find_opt p.pages vpn with
    | Some (epoch, (Pinned _ as pg)) when epoch = p.epoch -> set_page p vpn pg
    | _ -> set_page p vpn (Pinned 1)
  done;
  (* Pre-pin extension pages may or may not end up pinned (the window is
     clipped by capacity and prior state): [Top]. *)
  if extra > 0 then
    for vpn = r.vpn + n to min (r.vpn + n + extra - 1) max_vpn do
      match Hashtbl.find_opt p.pages vpn with
      | Some (epoch, Pinned _) when epoch = p.epoch -> ()
      | _ -> set_page p vpn Top
    done;
  (* The provable unpin of the intr pigeonhole: with [cached = pinned]
     and more pages than entries, filling the tail must have evicted the
     head of the very same span. *)
  (match state.sem with
  | Stepper.Intr { entries; _ } when n > entries ->
    for vpn = r.vpn to min (r.vpn + n - entries - 1) max_vpn do
      set_page p vpn Unpinned
    done
  | _ -> ());
  findings

(* {2 Drivers} *)

let with_context context findings =
  match context with
  | None -> findings
  | Some _ ->
    List.map
      (fun (f : Finding.t) ->
        match f.Finding.context with None -> { f with context } | Some _ -> f)
      findings

let verify_records ?context sem records =
  let state = init sem in
  List.concat_map (fun (line, r) -> step state ~line r) records
  |> with_context context

let verify_trace ?context sem trace =
  let state = init sem in
  let findings = ref [] in
  let line = ref 0 in
  Trace.iter trace (fun r ->
      incr line;
      match step state ~line:!line r with
      | [] -> ()
      | fs -> findings := List.rev_append fs !findings);
  with_context context (List.rev !findings)

let verify_file sem path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | lines ->
    let state = init sem in
    let findings = ref [] in
    List.iteri
      (fun i raw ->
        let line = i + 1 in
        let s = String.trim raw in
        if s <> "" && s.[0] <> '#' then
          match Record.of_string s with
          | Error msg ->
            findings :=
              Finding.v ~code:"UP00" ~line msg :: !findings
          | Ok r ->
            (match step state ~line r with
            | [] -> ()
            | fs -> findings := List.rev_append fs !findings))
      lines;
    Ok (with_context (Some path) (List.rev !findings))

let verify_workload ?(seed = Utlb.Sim_driver.default_seed) sem
    (spec : Workloads.spec) =
  let context = spec.Workloads.name ^ "/" ^ Stepper.mechanism sem in
  verify_trace ~context sem (spec.Workloads.generate ~seed)

let verify_grid (grid : Utlb_exp.Grid.t) =
  let module Grid = Utlb_exp.Grid in
  (* Traces are generated once per distinct workload spec with the grid
     seed — the exact streams {!Utlb_exp.Runner} will simulate. Verdicts
     are memoised per (trace, semantics): a policy sweep shares one
     model across many cells. *)
  let traces = ref [] in
  let trace_of (spec : Workloads.spec) =
    match List.find_opt (fun (s, _) -> s == spec) !traces with
    | Some (_, t) -> t
    | None ->
      let t = spec.Workloads.generate ~seed:grid.Grid.seed in
      traces := (spec, t) :: !traces;
      t
  in
  let verdicts = ref [] in
  let verdict_of (spec : Workloads.spec) sem =
    match List.find_opt (fun (s, m, _) -> s == spec && m = sem) !verdicts with
    | Some (_, _, fs) -> fs
    | None ->
      let fs = verify_trace sem (trace_of spec) in
      verdicts := (spec, sem, fs) :: !verdicts;
      fs
  in
  List.concat_map
    (fun (c : Grid.cell) ->
      let context =
        Printf.sprintf "%s:%s/%s" grid.Grid.name
          c.Grid.workload.Workloads.name
          (Grid.mech_label c.Grid.mech)
      in
      match Grid.resolve grid c.Grid.mech with
      | Error msg ->
        [ Finding.v ~context ~code:"UP00" ("cannot model mechanism: " ^ msg) ]
      | Ok (packed, _) ->
        verdict_of c.Grid.workload (Utlb.Sim_driver.stepper packed)
        |> List.map (fun (f : Finding.t) ->
               { f with Finding.context = Some context }))
    (Grid.cells grid)
