module Pid = Utlb_mem.Pid

type t = { records : Record.t array }

(* Generated traces arrive in time order, and sorting them was half of
   generation's time. Only input strictly increasing by [compare_time]
   is left as it is: the heap sort is not stable, so records that tie
   keep whatever order it gives them. *)
let strictly_ordered records =
  let rec from i =
    i >= Array.length records
    || (Record.compare_time records.(i - 1) records.(i) < 0 && from (i + 1))
  in
  from 1

let of_records records =
  if not (strictly_ordered records) then Array.sort Record.compare_time records;
  { records }

let records t = t.records

let length t = Array.length t.records

let merge traces =
  of_records (Array.concat (List.map (fun t -> Array.copy t.records) traces))

let iter t f = Array.iter f t.records

let fold_pages t f init =
  Array.fold_left
    (fun acc (r : Record.t) ->
      let acc = ref acc in
      for i = 0 to r.npages - 1 do
        acc := f !acc r.pid (r.vpn + i)
      done;
      !acc)
    init t.records

let footprint_pages t =
  let seen = Hashtbl.create 4096 in
  fold_pages t
    (fun n _pid vpn ->
      if Hashtbl.mem seen vpn then n
      else begin
        Hashtbl.replace seen vpn ();
        n + 1
      end)
    0

let per_pid_footprint t =
  let seen = Hashtbl.create 4096 in
  let counts = Hashtbl.create 8 in
  let () =
    fold_pages t
      (fun () pid vpn ->
        if not (Hashtbl.mem seen (pid, vpn)) then begin
          Hashtbl.replace seen (pid, vpn) ();
          let c = Option.value ~default:0 (Hashtbl.find_opt counts pid) in
          Hashtbl.replace counts pid (c + 1)
        end)
      ()
  in
  Hashtbl.fold (fun pid c acc -> (pid, c) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> Pid.compare a b)

let pids t = List.map fst (per_pid_footprint t)

let total_pages_touched t =
  Array.fold_left (fun n (r : Record.t) -> n + r.npages) 0 t.records

let save t oc =
  Printf.fprintf oc "# utlb trace: %d records\n" (length t);
  Array.iter (fun r -> output_string oc (Record.to_string r ^ "\n")) t.records

(* Shared line loop for [load] and [load_lenient]: hand each
   non-comment line (with its 1-based number) to [f], which decides
   whether parsing continues. *)
let fold_lines ic f init =
  let rec read lineno acc =
    match In_channel.input_line ic with
    | None -> Ok acc
    | Some line ->
      let line = String.trim line in
      if line = "" || (String.length line > 0 && line.[0] = '#') then
        read (lineno + 1) acc
      else
        (match f acc ~line:lineno line with
        | Ok acc -> read (lineno + 1) acc
        | Error _ as e -> e)
  in
  read 1 init

let load ic =
  match
    fold_lines ic
      (fun acc ~line s ->
        match Record.of_line ~line s with
        | Ok r -> Ok (r :: acc)
        | Error _ as e -> (match e with Error m -> Error m | Ok _ -> assert false))
      []
  with
  | Ok acc -> Ok (of_records (Array.of_list (List.rev acc)))
  | Error _ as e -> e

let load_lenient ?on_skip ic =
  let skipped = ref 0 in
  let acc =
    match
      fold_lines ic
        (fun acc ~line s ->
          match Record.of_line ~line s with
          | Ok r -> Ok (r :: acc)
          | Error msg ->
            incr skipped;
            (match on_skip with None -> () | Some f -> f ~line msg);
            Ok acc)
        []
    with
    | Ok acc -> acc
    | Error _ -> assert false (* the callback never returns [Error] *)
  in
  (of_records (Array.of_list (List.rev acc)), !skipped)
