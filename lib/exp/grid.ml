module Workloads = Utlb_trace.Workloads

type mech = {
  mech_name : string;
  params : (string * string) list;
}

type t = {
  name : string;
  seed : int64;
  workloads : Workloads.spec list;
  mechanisms : mech list;
  tenants : string option;
}

let mech ?(params = []) mech_name = { mech_name; params }

let axes mech_name axes =
  let points =
    List.fold_left
      (fun acc (key, values) ->
        List.concat_map
          (fun params -> List.map (fun v -> (key, v) :: params) values)
          acc)
      [ [] ] axes
  in
  List.map (fun params -> { mech_name; params = List.rev params }) points

let mech_label m =
  match m.params with
  | [] -> m.mech_name
  | params ->
    Printf.sprintf "%s[%s]" m.mech_name
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) params))

type cell = {
  index : int;
  workload : Workloads.spec;
  mech : mech;
}

let cells t =
  let i = ref (-1) in
  List.concat_map
    (fun workload ->
      List.map
        (fun mech ->
          incr i;
          { index = !i; workload; mech })
        t.mechanisms)
    t.workloads

let cell_seed t cell =
  (* Golden-ratio stride: distinct, well-spread seeds per cell. *)
  Int64.add t.seed (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (cell.index + 1)))

let param cell key = List.assoc_opt key cell.mech.params

let resolve t m =
  (* A mechanism-axis [tenants=] value (the comma-free spec grammar was
     chosen so a whole spec fits in one axis value) overrides the
     grid-level directive, letting one grid sweep partitioned against
     unpartitioned points. *)
  let spec =
    match List.assoc_opt "tenants" m.params with
    | Some spec -> Some spec
    | None -> t.tenants
  in
  match
    Utlb.Sim_driver.Registry.resolve ~name:m.mech_name
      ~params:(List.remove_assoc "tenants" m.params)
  with
  | Error e -> Error e
  | Ok packed -> (
    match spec with
    | None -> Ok (packed, None)
    | Some spec -> (
      match Utlb_tenant.Tenant.of_string spec with
      | Ok tenancy -> Ok (packed, tenancy)
      | Error e -> Error (Printf.sprintf "bad tenants spec %S: %s" spec e)))

(* ------------------------------------------------------------------ *)
(* Grid-file parsing                                                   *)

let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter_map (fun s ->
         let s = String.trim s in
         if String.equal s "" then None else Some s)

let parse_workload lineno token =
  let spec_of name =
    match Workloads.find name with
    | Some spec -> Ok spec
    | None ->
      Error
        (Printf.sprintf "line %d: unknown workload %S (expected one of %s)"
           lineno name
           (String.concat ", "
              (List.map (fun (w : Workloads.spec) -> w.name) Workloads.all)))
  in
  match String.index_opt token '@' with
  | None -> spec_of token
  | Some i -> (
    let name = String.sub token 0 i in
    let factor = String.sub token (i + 1) (String.length token - i - 1) in
    match (spec_of name, float_of_string_opt factor) with
    | Error e, _ -> Error e
    | Ok _, None ->
      Error
        (Printf.sprintf "line %d: bad scale factor %S in %S" lineno factor
           token)
    | Ok spec, Some f -> (
      try
        let scaled = Workloads.scaled spec ~factor:f in
        (* Scaled specs keep the base name; rename so labels, per-
           campaign trace memoisation keys, and emitted rows stay
           unambiguous when several factors of one app share a grid. *)
        Ok
          (Workloads.custom ~name:token
             ~problem_size:scaled.Workloads.problem_size
             ~description:scaled.Workloads.description
             ~generate:scaled.Workloads.generate ())
      with Invalid_argument msg ->
        Error (Printf.sprintf "line %d: %s" lineno msg)))

let parse_mech lineno = function
  | [] -> Error (Printf.sprintf "line %d: mechanism needs a name" lineno)
  | name :: axis_tokens -> (
    match Utlb.Sim_driver.Registry.find name with
    | None ->
      Error
        (Printf.sprintf "line %d: unregistered mechanism %S (see utlbsim list)"
           lineno name)
    | Some entry -> (
      let parse_axis token =
        match String.index_opt token '=' with
        | None -> Error (Printf.sprintf "line %d: expected key=v1,v2 axis, got %S" lineno token)
        | Some i ->
          let key = String.sub token 0 i in
          let values =
            String.sub token (i + 1) (String.length token - i - 1)
            |> String.split_on_char ','
            |> List.filter (fun v -> not (String.equal v ""))
          in
          if String.equal key "" || values = [] then
            Error (Printf.sprintf "line %d: empty axis in %S" lineno token)
          else Ok (key, values)
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | tok :: rest -> (
          match parse_axis tok with
          | Error e -> Error e
          | Ok axis -> collect (axis :: acc) rest)
      in
      match collect [] axis_tokens with
      | Error e -> Error e
      | Ok parsed -> (
        (* Every point must build, so a value the engine refuses (or
           cannot convert, such as a limit-mb past an int of pages)
           names its line here rather than failing the whole run. *)
        let points = axes entry.Utlb.Sim_driver.Registry.name parsed in
        let refused (m : mech) =
          match
            Utlb.Sim_driver.Registry.resolve ~name:m.mech_name
              ~params:(List.remove_assoc "tenants" m.params)
          with
          | Ok _ -> None
          | Error e -> Some (Printf.sprintf "line %d: %s" lineno e)
        in
        match List.find_map refused points with
        | Some e -> Error e
        | None -> Ok points)))

let of_string ?(name = "campaign") text =
  let lines = String.split_on_char '\n' text in
  let result =
    List.fold_left
      (fun acc line ->
        match acc with
        | Error _ -> acc
        | Ok (lineno, grid) -> (
          let lineno = lineno + 1 in
          match tokens (strip_comment line) with
          | [] -> Ok (lineno, grid)
          | "name" :: [ n ] -> Ok (lineno, { grid with name = n })
          | "seed" :: [ s ] -> (
            match Int64.of_string_opt s with
            | Some seed -> Ok (lineno, { grid with seed })
            | None ->
              Error (Printf.sprintf "line %d: bad seed %S" lineno s))
          | "workloads" :: names -> (
            let rec resolve acc = function
              | [] -> Ok (List.rev acc)
              | n :: rest -> (
                match parse_workload lineno n with
                | Error e -> Error e
                | Ok spec -> resolve (spec :: acc) rest)
            in
            match resolve [] names with
            | Error e -> Error e
            | Ok specs ->
              Ok (lineno, { grid with workloads = grid.workloads @ specs }))
          | "mechanism" :: rest -> (
            match parse_mech lineno rest with
            | Error e -> Error e
            | Ok mechs ->
              Ok (lineno, { grid with mechanisms = grid.mechanisms @ mechs }))
          | "tenants" :: [ spec ] -> (
            match Utlb_tenant.Tenant.of_string spec with
            | Ok None -> Ok (lineno, { grid with tenants = None })
            | Ok (Some _) -> Ok (lineno, { grid with tenants = Some spec })
            | Error e ->
              Error
                (Printf.sprintf "line %d: bad tenants spec: %s (%s)" lineno e
                   Utlb_tenant.Tenant.grammar))
          | "tenants" :: _ ->
            Error
              (Printf.sprintf
                 "line %d: tenants takes exactly one spec token (%s)" lineno
                 Utlb_tenant.Tenant.grammar)
          | key :: _ ->
            Error
              (Printf.sprintf
                 "line %d: unknown directive %S (expected name, seed, \
                  workloads, mechanism, or tenants)"
                 lineno key)))
      (Ok
         (0, { name; seed = 42L; workloads = []; mechanisms = []; tenants = None }))
      lines
  in
  match result with
  | Error e -> Error e
  | Ok (_, grid) ->
    if grid.workloads = [] then Error "grid declares no workloads"
    else if grid.mechanisms = [] then Error "grid declares no mechanisms"
    else Ok grid

let of_file path =
  let name = Filename.remove_extension (Filename.basename path) in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string ~name text
  | exception Sys_error msg -> Error msg
