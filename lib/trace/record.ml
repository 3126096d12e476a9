module Pid = Utlb_mem.Pid

type op = Send | Fetch

type t = { time_us : float; pid : Pid.t; vpn : int; npages : int; op : op }

let make ~time_us ~pid ~vpn ~npages ~op =
  if npages < 1 then invalid_arg "Record.make: npages must be >= 1";
  if vpn < 0 then invalid_arg "Record.make: negative vpn";
  if not (Float.is_finite time_us) then invalid_arg "Record.make: non-finite time";
  if time_us < 0.0 then invalid_arg "Record.make: negative time";
  { time_us; pid; vpn; npages; op }

let compare_time a b =
  let c = Float.compare a.time_us b.time_us in
  if c <> 0 then c
  else
    let c = Pid.compare a.pid b.pid in
    if c <> 0 then c else Int.compare a.vpn b.vpn

let op_char = function Send -> 'S' | Fetch -> 'F'

let to_string t =
  Printf.sprintf "%.3f %d %d %d %c" t.time_us (Pid.to_int t.pid) t.vpn
    t.npages (op_char t.op)

let of_string s =
  let error msg = Error (Printf.sprintf "Record.of_string: %s in %S" msg s) in
  let not_a kind field v =
    error (Printf.sprintf "%s %S is not %s" field v kind)
  in
  match String.split_on_char ' ' (String.trim s) with
  | [ time; pid; vpn; npages; op ] -> (
    match
      ( float_of_string_opt time,
        int_of_string_opt pid,
        int_of_string_opt vpn,
        int_of_string_opt npages )
    with
    | None, _, _, _ -> not_a "a number" "time" time
    | _, None, _, _ -> not_a "an integer" "pid" pid
    | _, _, None, _ -> not_a "an integer" "vpn" vpn
    | _, _, _, None -> not_a "an integer" "npages" npages
    | Some time_us, Some pid, Some vpn, Some npages -> (
      match op with
      | "S" | "F" -> (
        let op = if op = "S" then Send else Fetch in
        try Ok (make ~time_us ~pid:(Pid.of_int pid) ~vpn ~npages ~op)
        with Invalid_argument msg -> error msg)
      | other -> error (Printf.sprintf "bad op %S (expected S or F)" other)))
  | _ -> Error (Printf.sprintf "Record.of_string: expected 5 fields in %S" s)

let of_line ~line s =
  match of_string s with
  | Ok _ as ok -> ok
  | Error msg -> Error (Printf.sprintf "line %d: %s" line msg)

let pp ppf t =
  Format.fprintf ppf "@[%.3fus %a vpn=%d n=%d %c@]" t.time_us Pid.pp t.pid
    t.vpn t.npages (op_char t.op)
