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
  match String.split_on_char ' ' (String.trim s) with
  | [ time; pid; vpn; npages; op ] ->
    (try
       let op =
         match op with
         | "S" -> Send
         | "F" -> Fetch
         | other -> failwith (Printf.sprintf "bad op %S (expected S or F)" other)
       in
       Ok
         (make ~time_us:(float_of_string time)
            ~pid:(Pid.of_int (int_of_string pid))
            ~vpn:(int_of_string vpn)
            ~npages:(int_of_string npages)
            ~op)
     with Failure msg | Invalid_argument msg ->
       Error (Printf.sprintf "Record.of_string: %s in %S" msg s))
  | _ -> Error (Printf.sprintf "Record.of_string: expected 5 fields in %S" s)

let of_line ~line s =
  match of_string s with
  | Ok _ as ok -> ok
  | Error msg -> Error (Printf.sprintf "line %d: %s" line msg)

let pp ppf t =
  Format.fprintf ppf "@[%.3fus %a vpn=%d n=%d %c@]" t.time_us Pid.pp t.pid
    t.vpn t.npages (op_char t.op)
