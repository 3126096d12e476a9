(* Differential tests for the flat-storage hot path.

   Each flat structure (Bitvec, Flat_map, Translation_table, Ni_cache)
   is driven through a seeded random operation stream in lockstep with
   a deliberately naive reference implementation (Hashtbl / assoc
   lists), comparing every observable result. The pin path
   (Host_memory, Replacement) is held the same way against the
   implementations it replaced, and Packet.crc32 against the bitwise
   definition. A final set of checks replays the paper workloads
   through all three engines with and without an observability scope
   attached and demands structurally identical reports — the probes
   must not perturb the model. *)

module Bitvec = Utlb.Bitvec
module Flat_map = Utlb.Flat_map
module Tt = Utlb.Translation_table
module Ni = Utlb.Ni_cache
module Driver = Utlb.Sim_driver
module Report = Utlb.Report
module Workloads = Utlb_trace.Workloads
module Scope = Utlb_obs.Scope
module Trace_sink = Utlb_obs.Trace_sink
module Metrics = Utlb_obs.Metrics
module Rng = Utlb_sim.Rng
module Pid = Utlb_mem.Pid

let seed = 0x5eedL

(* ------------------------------------------------------------------ *)
(* Bitvec vs a Hashtbl of set positions.                              *)
(* ------------------------------------------------------------------ *)

let bitvec_range = 2_048

let model_runs model ~vpn ~count =
  (* Maximal runs of clear pages in [vpn, vpn+count), ascending. *)
  let runs = ref [] in
  let start = ref (-1) in
  for p = vpn to vpn + count - 1 do
    if Hashtbl.mem model p then begin
      if !start >= 0 then runs := (!start, p - !start) :: !runs;
      start := -1
    end
    else if !start < 0 then start := p
  done;
  if !start >= 0 then runs := (!start, vpn + count - !start) :: !runs;
  List.rev !runs

(* The clear runs of a range, walked as the hierarchical engine walks
   them: each run starts at a [first_clear] and ends at the next
   [first_set]. [on_run] may set bits inside the run it was given. *)
let clear_runs ?(on_run = fun ~vpn:_ ~count:_ -> ()) bv ~vpn ~count =
  let stop = vpn + count in
  let rec walk page acc =
    if page >= stop then List.rev acc
    else
      let first = Bitvec.first_clear bv ~vpn:page ~count:(stop - page) in
      if first < 0 then List.rev acc
      else
        let set = Bitvec.first_set bv ~vpn:first ~count:(stop - first) in
        let next = if set < 0 then stop else set in
        on_run ~vpn:first ~count:(next - first);
        walk next ((first, next - first) :: acc)
  in
  walk vpn []

let bitvec_differential () =
  let rng = Rng.create ~seed in
  let bv = Bitvec.create () in
  let model = Hashtbl.create 256 in
  for step = 1 to 20_000 do
    let vpn = Rng.int rng bitvec_range in
    let count = 1 + Rng.int rng 80 in
    let count = min count (bitvec_range - vpn) in
    (match Rng.int rng 8 with
    | 0 | 1 ->
      Bitvec.set bv vpn;
      Hashtbl.replace model vpn ()
    | 2 ->
      Bitvec.clear bv vpn;
      Hashtbl.remove model vpn
    | 3 ->
      Alcotest.(check bool)
        (Printf.sprintf "test@%d" step)
        (Hashtbl.mem model vpn) (Bitvec.test bv vpn)
    | 4 ->
      let expect = model_runs model ~vpn ~count = [] in
      Alcotest.(check bool)
        (Printf.sprintf "all_set@%d" step)
        expect
        (Bitvec.all_set bv ~vpn ~count)
    | 5 ->
      (* -1 exactly where the model has no clear page. *)
      let expect =
        match model_runs model ~vpn ~count with
        | [] -> -1
        | (first, _) :: _ -> first
      in
      Alcotest.(check int)
        (Printf.sprintf "first_clear@%d" step)
        expect
        (Bitvec.first_clear bv ~vpn ~count)
    | 6 ->
      let runs = model_runs model ~vpn ~count in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "clear runs@%d" step)
        runs
        (clear_runs bv ~vpn ~count);
      Alcotest.(check int)
        (Printf.sprintf "clear_count@%d" step)
        (List.fold_left (fun n (_, len) -> n + len) 0 runs)
        (Bitvec.clear_count bv ~vpn ~count)
    | _ ->
      let expect =
        let pages = List.init count (( + ) vpn) in
        match List.find_opt (Hashtbl.mem model) pages with
        | Some page -> page
        | None -> -1
      in
      Alcotest.(check int)
        (Printf.sprintf "first_set@%d" step)
        expect
        (Bitvec.first_set bv ~vpn ~count));
    if step mod 1_000 = 0 then
      Alcotest.(check int)
        (Printf.sprintf "population@%d" step)
        (Hashtbl.length model) (Bitvec.population bv)
  done;
  Alcotest.(check int) "final population" (Hashtbl.length model)
    (Bitvec.population bv);
  Alcotest.(check int) "population = recount" (Bitvec.recount bv)
    (Bitvec.population bv)

(* A run walk resumes after the run it delivered, so a caller may set
   bits inside that run while walking: each run is delivered once. *)
let bitvec_iter_sets_inside_run () =
  let bv = Bitvec.create () in
  Bitvec.set bv 10;
  Bitvec.set bv 200;
  let runs =
    clear_runs bv ~vpn:0 ~count:300 ~on_run:(fun ~vpn ~count ->
        for p = vpn to vpn + count - 1 do
          Bitvec.set bv p
        done)
  in
  Alcotest.(check (list (pair int int)))
    "runs delivered once" [ (0, 10); (11, 189); (201, 99) ] runs;
  Alcotest.(check bool) "range now pinned" true
    (Bitvec.all_set bv ~vpn:0 ~count:300)

(* ------------------------------------------------------------------ *)
(* Flat_map vs a Hashtbl, with heavy overwrite/tombstone churn.       *)
(* ------------------------------------------------------------------ *)

let flat_map_differential () =
  let rng = Rng.create ~seed in
  let map = Flat_map.create () in
  let model = Hashtbl.create 64 in
  for step = 1 to 20_000 do
    let key = Rng.int rng 200 in
    (match Rng.int rng 5 with
    | 0 | 1 ->
      let v0 = Rng.int rng 1_000 and v1 = Rng.int rng 1_000 in
      let present = Hashtbl.mem model key and slots = Flat_map.slots map in
      let slot = Flat_map.add map key ~v0 ~v1 in
      Hashtbl.replace model key (v0, v1);
      Alcotest.(check int)
        (Printf.sprintf "add key_at@%d" step)
        key
        (Flat_map.key_at map slot);
      if present then
        Alcotest.(check int)
          (Printf.sprintf "re-add keeps slots@%d" step)
          slots (Flat_map.slots map)
    | 2 ->
      Flat_map.remove map key;
      Hashtbl.remove model key
    | 3 ->
      let slot = Flat_map.find map key in
      let got =
        if slot < 0 then None
        else Some (Flat_map.value0 map slot, Flat_map.value1 map slot)
      in
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "find@%d" step)
        (Hashtbl.find_opt model key)
        got
    | _ ->
      Alcotest.(check bool)
        (Printf.sprintf "mem@%d" step)
        (Hashtbl.mem model key) (Flat_map.mem map key));
    if step mod 1_000 = 0 then
      Alcotest.(check int)
        (Printf.sprintf "length@%d" step)
        (Hashtbl.length model) (Flat_map.length map)
  done;
  let seen = ref [] in
  Flat_map.iter map (fun key ~v0 ~v1 -> seen := (key, (v0, v1)) :: !seen);
  let expect =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int (pair int int))))
    "iter matches model" expect
    (List.sort compare !seen);
  (* At the 3/4 threshold (12 keys in 16 slots) re-adding a present key
     updates it in place; only the next new key grows the table. *)
  let full = Flat_map.create () in
  for key = 0 to 11 do
    ignore (Flat_map.add full key ~v0:key ~v1:0)
  done;
  for key = 0 to 11 do
    let slot = Flat_map.add full key ~v0:key ~v1:1 in
    Alcotest.(check int) (Printf.sprintf "re-add %d keeps 16 slots" key) 16
      (Flat_map.slots full);
    Alcotest.(check int) (Printf.sprintf "re-add %d in place" key) 1
      (Flat_map.value1 full slot)
  done;
  Alcotest.(check int) "still 12 keys" 12 (Flat_map.length full);
  ignore (Flat_map.add full 12 ~v0:12 ~v1:0);
  Alcotest.(check int) "a new key grows" 32 (Flat_map.slots full)

(* ------------------------------------------------------------------ *)
(* Translation_table vs a Hashtbl plus explicit directory states.     *)
(* ------------------------------------------------------------------ *)

type dir_state = Empty | Resident | Swapped of int

(* The reference's answer to a lookup, and the one int the table
   returns for it. *)
type entry = Frame of int | Garbage | Table_swapped of int

let encode = function
  | Frame frame -> frame
  | Garbage -> Tt.garbage_entry
  | Table_swapped block -> -(block + 2)

let tt_differential () =
  let rng = Rng.create ~seed in
  let garbage = 0 in
  let table = Tt.create ~garbage_frame:garbage ~pid:(Pid.of_int 1) () in
  (* Pages-per-table is 1024 in the paper's two-level layout; keep the
     stream inside four directories so swaps collide with installs. *)
  let pages = 1 lsl 10 in
  let dirs = 4 in
  let dir_of vpn = vpn / pages in
  let entries : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let state = Array.make dirs Empty in
  let check_counters step =
    let resident = ref 0 and swapped = ref 0 in
    Array.iter
      (function
        | Resident -> incr resident
        | Swapped _ -> incr swapped
        | Empty -> ())
      state;
    Alcotest.(check int)
      (Printf.sprintf "valid_entries@%d" step)
      (Hashtbl.length entries) (Tt.valid_entries table);
    Alcotest.(check int)
      (Printf.sprintf "second_level_tables@%d" step)
      !resident
      (Tt.second_level_tables table);
    Alcotest.(check int)
      (Printf.sprintf "swapped_tables@%d" step)
      !swapped (Tt.swapped_tables table)
  in
  for step = 1 to 20_000 do
    let vpn = Rng.int rng (dirs * pages) in
    let dir = dir_of vpn in
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> (
      let frame = 1 + Rng.int rng 999 in
      match state.(dir) with
      | Swapped _ ->
        Alcotest.check_raises
          (Printf.sprintf "install on swapped raises@%d" step)
          (Invalid_argument "Translation_table.install: table is swapped out")
          (fun () -> Tt.install table ~vpn ~frame)
      | Empty | Resident ->
        Tt.install table ~vpn ~frame;
        Hashtbl.replace entries vpn frame;
        state.(dir) <- Resident)
    | 3 -> (
      match state.(dir) with
      | Swapped _ ->
        Alcotest.check_raises
          (Printf.sprintf "invalidate on swapped raises@%d" step)
          (Invalid_argument
             "Translation_table.invalidate: table is swapped out")
          (fun () -> Tt.invalidate table ~vpn)
      | Empty | Resident ->
        Tt.invalidate table ~vpn;
        Hashtbl.remove entries vpn)
    | 4 | 5 | 6 ->
      let expect =
        match state.(dir) with
        | Swapped block -> Table_swapped block
        | Empty | Resident -> (
          match Hashtbl.find_opt entries vpn with
          | Some frame -> Frame frame
          | None -> Garbage)
      in
      Alcotest.(check int)
        (Printf.sprintf "lookup@%d" step)
        (encode expect) (Tt.lookup table ~vpn)
    | 7 ->
      let block = Rng.int rng 10_000 in
      let expect = state.(dir) = Resident in
      Alcotest.(check bool)
        (Printf.sprintf "swap_out@%d" step)
        expect
        (Tt.swap_out table ~dir_index:dir ~disk_block:block);
      if expect then state.(dir) <- Swapped block
    | 8 ->
      let expect =
        match state.(dir) with Swapped _ -> true | Empty | Resident -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "swap_in@%d" step)
        expect
        (Tt.swap_in table ~dir_index:dir);
      if expect then state.(dir) <- Resident
    | _ -> check_counters step
  done;
  check_counters 20_001;
  (* iter_valid only sees resident tables, ascending vpn. *)
  let expect =
    Hashtbl.fold
      (fun vpn frame acc ->
        if state.(dir_of vpn) = Resident then (vpn, frame) :: acc else acc)
      entries []
    |> List.sort compare
  in
  let seen = ref [] in
  Tt.iter_valid table (fun vpn frame -> seen := (vpn, frame) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter_valid resident ascending" expect (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Ni_cache vs a per-set recency list.                                *)
(*                                                                    *)
(* The flat cache picks victims by minimum stamp over a global tick    *)
(* counter; stamps are unique, so when a set is full the minimum       *)
(* stamp is exactly the least recently touched line. The reference    *)
(* keeps each set as a most-recent-first list capped at the way       *)
(* count, using the exported [static_set_index] for geometry.         *)
(* ------------------------------------------------------------------ *)

let ni_differential assoc () =
  let rng = Rng.create ~seed in
  let config = { Ni.entries = 64; associativity = assoc } in
  let cache = Ni.create config in
  let nsets =
    match Ni.sets_of_config config with
    | Some sets -> sets
    | None -> Alcotest.fail "invalid geometry"
  in
  let ways = Ni.ways assoc in
  let sets = Array.make nsets [] in
  let set_of ~pid ~vpn =
    match Ni.static_set_index config ~pid ~vpn with
    | Some s -> s
    | None -> Alcotest.fail "static_set_index"
  in
  let npids = 6 and nvpns = 4_096 in
  for step = 1 to 20_000 do
    let pid = Rng.int rng npids in
    let vpn = Rng.int rng nvpns in
    let s = set_of ~pid ~vpn in
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> (
      let expect =
        match List.assoc_opt (pid, vpn) sets.(s) with
        | Some frame ->
          sets.(s) <-
            ((pid, vpn), frame) :: List.remove_assoc (pid, vpn) sets.(s);
          Some frame
        | None -> None
      in
      (* The frame, or -1 exactly where the reference misses. *)
      Alcotest.(check int)
        (Printf.sprintf "lookup@%d" step)
        (Option.value ~default:(-1) expect)
        (Ni.lookup cache ~pid:(Pid.of_int pid) ~vpn))
    | 3 | 4 | 5 ->
      let frame = Rng.int rng 10_000 in
      let expect_evicted =
        if List.mem_assoc (pid, vpn) sets.(s) then begin
          sets.(s) <-
            ((pid, vpn), frame) :: List.remove_assoc (pid, vpn) sets.(s);
          None
        end
        else if List.length sets.(s) < ways then begin
          sets.(s) <- ((pid, vpn), frame) :: sets.(s);
          None
        end
        else begin
          let rec split_last = function
            | [ victim ] -> ([], victim)
            | line :: rest ->
              let kept, victim = split_last rest in
              (line :: kept, victim)
            | [] -> assert false
          in
          let kept, ((vpid, vvpn), vframe) = split_last sets.(s) in
          sets.(s) <- ((pid, vpn), frame) :: kept;
          Some (vpid, vvpn, vframe)
        end
      in
      let got =
        if Ni.insert cache ~pid:(Pid.of_int pid) ~vpn ~frame then
          Some
            ( Pid.to_int (Ni.evicted_pid cache),
              Ni.evicted_vpn cache,
              Ni.evicted_frame cache )
        else None
      in
      Alcotest.(check (option (triple int int int)))
        (Printf.sprintf "insert@%d" step)
        expect_evicted got
    | 6 ->
      let expect = List.mem_assoc (pid, vpn) sets.(s) in
      sets.(s) <- List.remove_assoc (pid, vpn) sets.(s);
      Alcotest.(check bool)
        (Printf.sprintf "invalidate@%d" step)
        expect
        (Ni.invalidate cache ~pid:(Pid.of_int pid) ~vpn)
    | 7 ->
      Alcotest.(check int)
        (Printf.sprintf "peek@%d" step)
        (Option.value ~default:(-1) (List.assoc_opt (pid, vpn) sets.(s)))
        (Ni.peek cache ~pid:(Pid.of_int pid) ~vpn);
      Alcotest.(check bool)
        (Printf.sprintf "contains@%d" step)
        (List.mem_assoc (pid, vpn) sets.(s))
        (Ni.contains cache ~pid:(Pid.of_int pid) ~vpn)
    | 8 when Rng.int rng 50 = 0 ->
      let expect = ref 0 in
      Array.iteri
        (fun i lines ->
          let kept =
            List.filter (fun ((p, _), _) -> p <> pid) lines
          in
          expect := !expect + (List.length lines - List.length kept);
          sets.(i) <- kept)
        sets;
      Alcotest.(check int)
        (Printf.sprintf "invalidate_process@%d" step)
        !expect
        (Ni.invalidate_process cache ~pid:(Pid.of_int pid))
    | _ ->
      Alcotest.(check int)
        (Printf.sprintf "valid_lines@%d" step)
        (Array.fold_left (fun acc l -> acc + List.length l) 0 sets)
        (Ni.valid_lines cache)
  done;
  let expect =
    Array.to_list sets
    |> List.concat_map (List.map (fun ((p, v), f) -> (p, v, f)))
    |> List.sort compare
  in
  let seen = ref [] in
  Ni.iter_valid cache (fun ~pid ~vpn ~frame ->
      seen := (Pid.to_int pid, vpn, frame) :: !seen);
  Alcotest.(check (list (triple int int int)))
    "iter_valid matches model" expect
    (List.sort compare !seen)

(* ------------------------------------------------------------------ *)
(* Host_memory vs its Hashtbl-owner version.                          *)
(*                                                                    *)
(* The reference is the host before the packed owner array and the   *)
(* pinned-page count: an owner Hashtbl and a clock scan that always   *)
(* walks every frame. Small hosts and a few pids make full-host pin   *)
(* failures, evictions and OOM rollback all common.                   *)
(* ------------------------------------------------------------------ *)

module Ref_host = struct
  module Page_table = Utlb_mem.Page_table
  module Frame_allocator = Utlb_mem.Frame_allocator

  type process = { table : Page_table.t; mutable pinned : int }

  type t = {
    frames : Frame_allocator.t;
    procs : (int, process) Hashtbl.t;
    owner : (int, int * int) Hashtbl.t;
    mutable clock_hand : int;
    mutable faults : int;
    mutable evictions : int;
    mutable pin_calls : int;
    mutable pages_pinned : int;
  }

  let create ~frames =
    {
      frames = Frame_allocator.create ~frames;
      procs = Hashtbl.create 8;
      owner = Hashtbl.create 1024;
      clock_hand = 1;
      faults = 0;
      evictions = 0;
      pin_calls = 0;
      pages_pinned = 0;
    }

  let add_process t pid =
    Hashtbl.replace t.procs pid { table = Page_table.create (); pinned = 0 }

  let proc t pid = Hashtbl.find t.procs pid

  let translate t pid ~vpn =
    let frame = Page_table.frame_of (proc t pid).table vpn in
    if frame < 0 then None else Some frame

  let try_evict t =
    let total = Frame_allocator.total t.frames in
    let rec scan remaining =
      if remaining = 0 then false
      else begin
        let f = t.clock_hand in
        t.clock_hand <- (if f + 1 >= total then 1 else f + 1);
        match Hashtbl.find_opt t.owner f with
        | None -> scan (remaining - 1)
        | Some (pid, vpn) ->
          let p = proc t pid in
          if
            Page_table.frame_of p.table vpn >= 0
            && Page_table.pin_of p.table vpn = 0
          then begin
            Page_table.remove p.table vpn;
            Hashtbl.remove t.owner f;
            Frame_allocator.free t.frames f;
            t.evictions <- t.evictions + 1;
            true
          end
          else scan (remaining - 1)
      end
    in
    scan (total - 1)

  let rec alloc_frame t =
    let f = Frame_allocator.alloc t.frames in
    if f >= 0 then Some f else if try_evict t then alloc_frame t else None

  let ensure_resident t pid ~vpn =
    let p = proc t pid in
    let frame = Page_table.frame_of p.table vpn in
    if frame >= 0 then Ok frame
    else
      match alloc_frame t with
      | None -> Error `Out_of_memory
      | Some f ->
        Page_table.set p.table vpn ~frame:f;
        Hashtbl.replace t.owner f (pid, vpn);
        t.faults <- t.faults + 1;
        Ok f

  let pin t pid ~vpn ~count =
    let p = proc t pid in
    let frames = Array.make count 0 in
    let rec pin_from i =
      if i = count then Ok frames
      else
        match ensure_resident t pid ~vpn:(vpn + i) with
        | Error _ as e ->
          for j = 0 to i - 1 do
            let remaining =
              Page_table.adjust_pin p.table (vpn + j) ~delta:(-1)
            in
            if remaining = 0 then p.pinned <- p.pinned - 1
          done;
          e
        | Ok f ->
          frames.(i) <- f;
          let now = Page_table.adjust_pin p.table (vpn + i) ~delta:1 in
          if now = 1 then p.pinned <- p.pinned + 1;
          pin_from (i + 1)
    in
    match pin_from 0 with
    | Ok _ as ok ->
      t.pin_calls <- t.pin_calls + 1;
      t.pages_pinned <- t.pages_pinned + count;
      ok
    | Error _ as e -> e

  let unpin t pid ~vpn ~count =
    let p = proc t pid in
    for i = 0 to count - 1 do
      if Page_table.pin_of p.table (vpn + i) <= 0 then
        invalid_arg "Host_memory.unpin: page not pinned"
    done;
    for i = 0 to count - 1 do
      let remaining = Page_table.adjust_pin p.table (vpn + i) ~delta:(-1) in
      if remaining = 0 then p.pinned <- p.pinned - 1
    done

  let is_pinned t pid ~vpn = Page_table.pin_of (proc t pid).table vpn > 0

  let pinned_pages t pid = (proc t pid).pinned

  let frame_owner t ~frame = Hashtbl.find_opt t.owner frame
end

module Host = Utlb_mem.Host_memory

let host_differential () =
  let rng = Rng.create ~seed in
  let buffer = Array.make 8 (-1) in
  let ooms = ref 0 and rollbacks = ref 0 and evictions = ref 0 in
  List.iter
    (fun (frames, npids) ->
      let host = Host.create ~frames () and model = Ref_host.create ~frames in
      for pid = 0 to npids - 1 do
        Host.add_process host (Pid.of_int pid);
        Ref_host.add_process model pid
      done;
      let vpns = 2 * frames in
      let result (r : (_, [ `Out_of_memory ]) result) =
        match r with Ok v -> Some v | Error `Out_of_memory -> None
      in
      let ctx step what = Printf.sprintf "%d frames, %s@%d" frames what step in
      for step = 1 to 3_000 do
        let ipid = Rng.int rng npids in
        let pid = Pid.of_int ipid in
        let vpn = Rng.int rng vpns in
        let count = 1 + Rng.int rng 4 in
        (match Rng.int rng 20 with
        | (0 | 1 | 2 | 3 | 4 | 5 | 6 | 7) as op ->
          let expect = result (Ref_host.pin model ipid ~vpn ~count) in
          if expect = None then begin
            incr ooms;
            if count > 1 then incr rollbacks
          end;
          (* Half the pins go through the engines' buffer form, whose
             frames must be the result form's and whose failure must
             roll back the same way (the per-step checks below). *)
          let got =
            if op < 4 then result (Host.pin host pid ~vpn ~count)
            else if Host.pin_into host pid ~vpn ~count buffer then
              Some (Array.sub buffer 0 count)
            else None
          in
          Alcotest.(check (option (array int))) (ctx step "pin") expect got
        | 8 | 9 | 10 | 11 | 12 ->
          (* Mostly pages the reference holds pinned, so that most
             calls succeed; the rest must fail the same way. *)
          let count =
            if Rng.int rng 4 = 0 then count
            else begin
              let n = ref 0 in
              while !n < count && Ref_host.is_pinned model ipid ~vpn:(vpn + !n)
              do
                incr n
              done;
              max 1 !n
            end
          in
          let outcome f =
            match f () with () -> None | exception Invalid_argument m -> Some m
          in
          let expect =
            outcome (fun () -> Ref_host.unpin model ipid ~vpn ~count)
          in
          Alcotest.(check (option string))
            (ctx step "unpin") expect
            (outcome (fun () -> Host.unpin host pid ~vpn ~count))
        | 13 | 14 | 15 | 16 ->
          Alcotest.(check (option int))
            (ctx step "ensure_resident")
            (result (Ref_host.ensure_resident model ipid ~vpn))
            (result (Host.ensure_resident host pid ~vpn))
        | _ ->
          Alcotest.(check (option int))
            (ctx step "translate")
            (Ref_host.translate model ipid ~vpn)
            (Host.translate host pid ~vpn));
        Alcotest.(check (list (option (pair int int))))
          (ctx step "frame_owner of every frame")
          (List.init frames (fun frame -> Ref_host.frame_owner model ~frame))
          (List.init frames (fun frame ->
               Option.map
                 (fun (p, v) -> (Pid.to_int p, v))
                 (Host.frame_owner host ~frame)));
        Alcotest.(check (list int))
          (ctx step
             "evictions, faults, free frames, pin calls, pages pinned, \
              pinned_pages per pid")
          ([
             model.Ref_host.evictions;
             model.Ref_host.faults;
             Utlb_mem.Frame_allocator.free_count model.Ref_host.frames;
             model.Ref_host.pin_calls;
             model.Ref_host.pages_pinned;
           ]
          @ List.init npids (Ref_host.pinned_pages model))
          ([
             Host.evictions host;
             Host.faults host;
             Host.free_frames host;
             Host.pin_calls host;
             Host.pages_pinned host;
           ]
          @ List.init npids (fun p -> Host.pinned_pages host (Pid.of_int p)))
      done;
      evictions := !evictions + Host.evictions host)
    [ (4, 2); (5, 3); (8, 2); (16, 3); (33, 2); (64, 3) ];
  (* The stream must reach every path the rewrite touched. *)
  Alcotest.(check bool) "full-host pin failures occurred" true (!ooms > 0);
  Alcotest.(check bool) "OOM rollbacks occurred" true (!rollbacks > 0);
  Alcotest.(check bool) "evictions occurred" true (!evictions > 0)

(* ------------------------------------------------------------------ *)
(* Replacement vs a snapshot heap that never compacts.                *)
(*                                                                    *)
(* The reference is the tracker before heap rebuilds: every insert    *)
(* and touch pushes a snapshot and only victim selection pops. The    *)
(* rebuilt heap must choose every victim the same way under all five  *)
(* policies and random protect windows.                               *)
(* ------------------------------------------------------------------ *)

module Ref_replacement = struct
  module R = Utlb.Replacement

  type t = {
    policy : R.policy;
    rng : Rng.t;
    pages : Flat_map.t;
    mutable hs1 : int array;
    mutable hs2 : int array;
    mutable hpage : int array;
    mutable hlen : int;
    mutable dense : int array;
    mutable dense_len : int;
    slot : Flat_map.t;
    mutable tick : int;
  }

  let score1 policy ~last_use ~uses =
    match policy with
    | R.Lru -> last_use
    | R.Mru -> -last_use
    | R.Lfu -> uses
    | R.Mfu -> -uses
    | R.Random -> 0

  let score2 policy ~last_use =
    match policy with
    | R.Lru | R.Mru | R.Random -> 0
    | R.Lfu | R.Mfu -> last_use

  let create policy ~rng =
    {
      policy;
      rng;
      pages = Flat_map.create ();
      hs1 = Array.make 64 0;
      hs2 = Array.make 64 0;
      hpage = Array.make 64 0;
      hlen = 0;
      dense = Array.make 16 0;
      dense_len = 0;
      slot = Flat_map.create ();
      tick = 0;
    }

  let next_tick t =
    t.tick <- t.tick + 1;
    t.tick

  let heap_less t i j =
    t.hs1.(i) < t.hs1.(j)
    || (t.hs1.(i) = t.hs1.(j)
       && (t.hs2.(i) < t.hs2.(j)
          || (t.hs2.(i) = t.hs2.(j) && t.hpage.(i) < t.hpage.(j))))

  let heap_swap t i j =
    let s1 = t.hs1.(i) and s2 = t.hs2.(i) and p = t.hpage.(i) in
    t.hs1.(i) <- t.hs1.(j);
    t.hs2.(i) <- t.hs2.(j);
    t.hpage.(i) <- t.hpage.(j);
    t.hs1.(j) <- s1;
    t.hs2.(j) <- s2;
    t.hpage.(j) <- p

  let heap_push t ~s1 ~s2 ~page =
    if t.hlen = Array.length t.hs1 then begin
      let grow a =
        let b = Array.make (2 * t.hlen) 0 in
        Array.blit a 0 b 0 t.hlen;
        b
      in
      t.hs1 <- grow t.hs1;
      t.hs2 <- grow t.hs2;
      t.hpage <- grow t.hpage
    end;
    let i = ref t.hlen in
    t.hs1.(!i) <- s1;
    t.hs2.(!i) <- s2;
    t.hpage.(!i) <- page;
    t.hlen <- t.hlen + 1;
    while !i > 0 && heap_less t !i ((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      heap_swap t !i parent;
      i := parent
    done

  let heap_pop t rs1 rs2 rpage =
    if t.hlen = 0 then false
    else begin
      rs1 := t.hs1.(0);
      rs2 := t.hs2.(0);
      rpage := t.hpage.(0);
      t.hlen <- t.hlen - 1;
      if t.hlen > 0 then begin
        t.hs1.(0) <- t.hs1.(t.hlen);
        t.hs2.(0) <- t.hs2.(t.hlen);
        t.hpage.(0) <- t.hpage.(t.hlen);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.hlen && heap_less t l !smallest then smallest := l;
          if r < t.hlen && heap_less t r !smallest then smallest := r;
          if !smallest = !i then continue := false
          else begin
            heap_swap t !i !smallest;
            i := !smallest
          end
        done
      end;
      true
    end

  let push_snapshot t page ~last_use ~uses =
    if t.policy <> R.Random then
      heap_push t
        ~s1:(score1 t.policy ~last_use ~uses)
        ~s2:(score2 t.policy ~last_use)
        ~page

  let dense_add t page =
    if t.dense_len = Array.length t.dense then begin
      let bigger = Array.make (2 * t.dense_len) 0 in
      Array.blit t.dense 0 bigger 0 t.dense_len;
      t.dense <- bigger
    end;
    t.dense.(t.dense_len) <- page;
    ignore (Flat_map.add t.slot page ~v0:t.dense_len ~v1:0);
    t.dense_len <- t.dense_len + 1

  let dense_remove t page =
    let s = Flat_map.find t.slot page in
    if s >= 0 then begin
      let i = Flat_map.value0 t.slot s in
      let last = t.dense_len - 1 in
      let moved = t.dense.(last) in
      t.dense.(i) <- moved;
      Flat_map.set_value0 t.slot (Flat_map.find t.slot moved) i;
      t.dense_len <- last;
      Flat_map.remove t.slot page
    end

  let insert t page =
    let last_use = next_tick t in
    ignore (Flat_map.add t.pages page ~v0:last_use ~v1:1);
    if t.policy = R.Random then dense_add t page
    else push_snapshot t page ~last_use ~uses:1

  let touch t page =
    let s = Flat_map.find t.pages page in
    if s >= 0 then begin
      let last_use = next_tick t in
      let uses = Flat_map.value1 t.pages s + 1 in
      Flat_map.set_value0 t.pages s last_use;
      Flat_map.set_value1 t.pages s uses;
      push_snapshot t page ~last_use ~uses
    end

  let remove t page =
    if Flat_map.mem t.pages page then begin
      Flat_map.remove t.pages page;
      if t.policy = R.Random then dense_remove t page
    end

  let mem t page = Flat_map.mem t.pages page

  let select_random t protect =
    if t.dense_len = 0 then None
    else begin
      let rec sample k =
        if k = 0 then
          let rec scan i =
            if i >= t.dense_len then None
            else if protect t.dense.(i) then scan (i + 1)
            else Some t.dense.(i)
          in
          scan 0
        else
          let candidate = t.dense.(Rng.int t.rng t.dense_len) in
          if protect candidate then sample (k - 1) else Some candidate
      in
      match sample 8 with
      | None -> None
      | Some page ->
        Flat_map.remove t.pages page;
        dense_remove t page;
        Some page
    end

  let select_scored t protect =
    let stash = ref [] in
    let s1 = ref 0 and s2 = ref 0 and page = ref 0 in
    let victim = ref None in
    let continue = ref true in
    while !continue do
      if not (heap_pop t s1 s2 page) then continue := false
      else begin
        let slot = Flat_map.find t.pages !page in
        if slot >= 0 then begin
          let last_use = Flat_map.value0 t.pages slot in
          let uses = Flat_map.value1 t.pages slot in
          if
            score1 t.policy ~last_use ~uses <> !s1
            || score2 t.policy ~last_use <> !s2
          then ()
          else if protect !page then stash := (!s1, !s2, !page) :: !stash
          else begin
            Flat_map.remove t.pages !page;
            victim := Some !page;
            continue := false
          end
        end
      end
    done;
    List.iter (fun (s1, s2, page) -> heap_push t ~s1 ~s2 ~page) !stash;
    !victim

  let select_victim t protect =
    if t.policy = R.Random then select_random t protect
    else select_scored t protect
end

let replacement_differential policy () =
  let module R = Utlb.Replacement in
  let rng = Rng.create ~seed in
  (* Two trackers in lockstep with the reference, one evicting by the
     in-flight span's bounds, one by a predicate over the same span;
     under Random all three draw the same numbers. *)
  let tracker = R.create policy ~rng:(Rng.create ~seed:7L) in
  let by_predicate = R.create policy ~rng:(Rng.create ~seed:7L) in
  let model = Ref_replacement.create policy ~rng:(Rng.create ~seed:7L) in
  let npages = 300 in
  let victims = ref 0 in
  for step = 1 to 30_000 do
    let page = Rng.int rng npages in
    let ctx what = Printf.sprintf "%s %s@%d" (R.policy_name policy) what step in
    (* Phases alternate between touch-heavy streams, which grow the
       stale part of the heap, and eviction-heavy ones. *)
    let evicting = step / 2_000 mod 2 = 1 in
    match Rng.int rng 10 with
    | 0 | 1 | 2 ->
      if not (Ref_replacement.mem model page) then begin
        Ref_replacement.insert model page;
        R.insert tracker page;
        R.insert by_predicate page
      end
    | 3 | 4 | 5 | 6 ->
      Ref_replacement.touch model page;
      R.touch tracker page;
      R.touch by_predicate page
    | 7 ->
      Ref_replacement.remove model page;
      R.remove tracker page;
      R.remove by_predicate page
    | _ when evicting || Rng.int rng 8 = 0 ->
      let lo = Rng.int rng npages and width = Rng.int rng 64 in
      let protect p = p >= lo && p < lo + width in
      let expect = Ref_replacement.select_victim model protect in
      if expect <> None then incr victims;
      Alcotest.(check int)
        (ctx "select_outside")
        (Option.value ~default:(-1) expect)
        (R.select_outside tracker ~vpn:lo ~npages:width);
      Alcotest.(check (option int))
        (ctx "select_victim") expect
        (R.select_victim by_predicate ~protect ())
    | _ ->
      Alcotest.(check bool)
        (ctx "mem") (Ref_replacement.mem model page) (R.mem tracker page);
      Alcotest.(check int)
        (ctx "size")
        (Flat_map.length model.Ref_replacement.pages)
        (R.size tracker)
  done;
  Alcotest.(check bool) "victims were chosen" true (!victims > 1_000)

(* ------------------------------------------------------------------ *)
(* Frame_allocator vs its free-list version.                          *)
(*                                                                    *)
(* The reference is the allocator before the bump pointer: a list of  *)
(* every free frame, built at creation, that [alloc] pops and [free]  *)
(* pushes. On hosts of 2-64 frames, random alloc/free streams must    *)
(* hand out the same frames in the same order and refuse the same     *)
(* frees with the same errors.                                        *)
(* ------------------------------------------------------------------ *)

module Ref_frames = struct
  type t = {
    total : int;
    mutable free_list : int list;
    allocated : Bytes.t;
    mutable free_count : int;
  }

  let garbage = 0

  let create ~frames =
    let allocated = Bytes.make frames '\000' in
    Bytes.set allocated garbage '\001';
    let rec build i acc = if i < 1 then acc else build (i - 1) (i :: acc) in
    { total = frames; free_list = build (frames - 1) []; allocated;
      free_count = frames - 1 }

  let alloc t =
    match t.free_list with
    | [] -> None
    | f :: rest ->
      t.free_list <- rest;
      t.free_count <- t.free_count - 1;
      Bytes.set t.allocated f '\001';
      Some f

  let free t f =
    if f = garbage then invalid_arg "Frame_allocator.free: garbage frame";
    if f < 0 || f >= t.total then
      invalid_arg "Frame_allocator.free: frame out of range";
    if Bytes.get t.allocated f = '\000' then
      invalid_arg "Frame_allocator.free: double free";
    Bytes.set t.allocated f '\000';
    t.free_list <- f :: t.free_list;
    t.free_count <- t.free_count + 1

  let is_allocated t f =
    f >= 0 && f < t.total && Bytes.get t.allocated f = '\001'
end

let frame_allocator_differential () =
  let module Fa = Utlb_mem.Frame_allocator in
  let rng = Rng.create ~seed in
  let exhausted = ref 0 and freed = ref 0 and refused = ref 0 in
  for frames = 2 to 64 do
    let fa = Fa.create ~frames and model = Ref_frames.create ~frames in
    for step = 1 to 400 do
      let ctx what = Printf.sprintf "%d frames, %s@%d" frames what step in
      (* Phases alternate between draining the host and returning
         frames, so that both exhaustion and long freed stacks occur. *)
      let draining = step / 50 mod 2 = 0 in
      if Rng.int rng 4 < (if draining then 3 else 1) then begin
        let expect = Option.value ~default:(-1) (Ref_frames.alloc model) in
        if expect < 0 then incr exhausted;
        Alcotest.(check int) (ctx "alloc") expect (Fa.alloc fa)
      end
      else begin
        (* Any frame from -1 to [frames]: the garbage frame, frames out
           of range and frames not allocated must be refused alike. *)
        let f = Rng.int rng (frames + 2) - 1 in
        let outcome free =
          match free () with
          | () -> None
          | exception Invalid_argument m -> Some m
        in
        let expect = outcome (fun () -> Ref_frames.free model f) in
        if expect = None then incr freed else incr refused;
        Alcotest.(check (option string))
          (ctx (Printf.sprintf "free %d" f))
          expect
          (outcome (fun () -> Fa.free fa f))
      end;
      Alcotest.(check (list int))
        (ctx "free count, in use")
        [ model.Ref_frames.free_count; frames - model.Ref_frames.free_count ]
        [ Fa.free_count fa; Fa.in_use fa ];
      Alcotest.(check (list bool))
        (ctx "is_allocated of every frame")
        (List.init (frames + 2) (fun f -> Ref_frames.is_allocated model (f - 1)))
        (List.init (frames + 2) (fun f -> Fa.is_allocated fa (f - 1)))
    done
  done;
  Alcotest.(check bool) "hosts ran out of frames" true (!exhausted > 0);
  Alcotest.(check bool) "frames were freed" true (!freed > 1_000);
  Alcotest.(check bool) "frees were refused" true (!refused > 0)

(* ------------------------------------------------------------------ *)
(* Miss_classifier vs its two-probe version.                          *)
(*                                                                    *)
(* The reference is the classifier before one shadow-table probe      *)
(* served both the miss kind and the LRU update: it asks [seen], then *)
(* the shadow table, then probes the table again to touch or insert.  *)
(* Random hit/miss/invalidate streams over 1-4 pids and shadow        *)
(* capacities of 1-64 must classify every miss alike.                 *)
(* ------------------------------------------------------------------ *)

module Ref_classifier = struct
  module Mc = Utlb.Miss_classifier

  type t = {
    capacity : int;
    sentinel : int;
    kpid : int array;
    kvpn : int array;
    prev : int array;
    next : int array;
    free : int array;
    mutable free_len : int;
    table : Flat_map.t;
    mutable size : int;
    seen : Flat_map.t;
    mutable compulsory : int;
    mutable capacity_misses : int;
    mutable conflict : int;
  }

  let pack ~pid ~vpn = (pid lsl 32) lor vpn

  let create ~capacity =
    let sentinel = capacity in
    {
      capacity;
      sentinel;
      kpid = Array.make (capacity + 1) (-1);
      kvpn = Array.make (capacity + 1) (-1);
      prev = Array.make (capacity + 1) sentinel;
      next = Array.make (capacity + 1) sentinel;
      free = Array.init capacity (fun i -> capacity - 1 - i);
      free_len = capacity;
      table = Flat_map.create ();
      size = 0;
      seen = Flat_map.create ();
      compulsory = 0;
      capacity_misses = 0;
      conflict = 0;
    }

  let unlink t n =
    t.next.(t.prev.(n)) <- t.next.(n);
    t.prev.(t.next.(n)) <- t.prev.(n)

  let push_front t n =
    t.next.(n) <- t.next.(t.sentinel);
    t.prev.(n) <- t.sentinel;
    t.prev.(t.next.(t.sentinel)) <- n;
    t.next.(t.sentinel) <- n

  let shadow_touch t key =
    let slot = Flat_map.find t.table key in
    if slot < 0 then false
    else begin
      let n = Flat_map.value0 t.table slot in
      unlink t n;
      push_front t n;
      true
    end

  let shadow_insert t key ~pid ~vpn =
    if not (Flat_map.mem t.table key) then begin
      if t.size >= t.capacity then begin
        let tail = t.prev.(t.sentinel) in
        unlink t tail;
        Flat_map.remove t.table (pack ~pid:t.kpid.(tail) ~vpn:t.kvpn.(tail));
        t.free.(t.free_len) <- tail;
        t.free_len <- t.free_len + 1;
        t.size <- t.size - 1
      end;
      t.free_len <- t.free_len - 1;
      let n = t.free.(t.free_len) in
      t.kpid.(n) <- pid;
      t.kvpn.(n) <- vpn;
      ignore (Flat_map.add t.table key ~v0:n ~v1:0);
      push_front t n;
      t.size <- t.size + 1
    end

  let note_hit t ~pid ~vpn =
    let key = pack ~pid ~vpn in
    if not (shadow_touch t key) then shadow_insert t key ~pid ~vpn;
    ignore (Flat_map.add t.seen key ~v0:0 ~v1:0)

  let classify t ~pid ~vpn =
    let key = pack ~pid ~vpn in
    let kind =
      if not (Flat_map.mem t.seen key) then Mc.Compulsory
      else if Flat_map.mem t.table key then Mc.Conflict
      else Mc.Capacity
    in
    ignore (Flat_map.add t.seen key ~v0:0 ~v1:0);
    if not (shadow_touch t key) then shadow_insert t key ~pid ~vpn;
    (match kind with
    | Mc.Compulsory -> t.compulsory <- t.compulsory + 1
    | Mc.Capacity -> t.capacity_misses <- t.capacity_misses + 1
    | Mc.Conflict -> t.conflict <- t.conflict + 1);
    kind

  let note_invalidate t ~pid ~vpn =
    let key = pack ~pid ~vpn in
    let slot = Flat_map.find t.table key in
    if slot >= 0 then begin
      let n = Flat_map.value0 t.table slot in
      unlink t n;
      Flat_map.remove t.table key;
      t.free.(t.free_len) <- n;
      t.free_len <- t.free_len + 1;
      t.size <- t.size - 1
    end
end

let classifier_differential () =
  let module Mc = Utlb.Miss_classifier in
  let rng = Rng.create ~seed in
  let kinds = Hashtbl.create 3 in
  List.iter
    (fun capacity ->
      for npids = 1 to 4 do
        let t = Mc.create ~capacity
        and model = Ref_classifier.create ~capacity in
        (* About twice as many pages as the shadow holds, so that hits
           and misses of all three kinds are common. *)
        let vpns = 1 + (2 * capacity / npids) in
        for step = 1 to 2_000 do
          let ctx what =
            Printf.sprintf "capacity %d, %d pids, %s@%d" capacity npids what
              step
          in
          let ipid = Rng.int rng npids and vpn = Rng.int rng vpns in
          let pid = Pid.of_int ipid in
          (match Rng.int rng 10 with
          | 0 | 1 | 2 | 3 ->
            Ref_classifier.note_hit model ~pid:ipid ~vpn;
            Mc.note_hit t ~pid ~vpn
          | 4 | 5 | 6 | 7 | 8 ->
            let expect = Ref_classifier.classify model ~pid:ipid ~vpn in
            Hashtbl.replace kinds expect ();
            Alcotest.(check string)
              (ctx "classify") (Mc.kind_name expect)
              (Mc.kind_name (Mc.classify t ~pid ~vpn))
          | _ ->
            Ref_classifier.note_invalidate model ~pid:ipid ~vpn;
            Mc.note_invalidate t ~pid ~vpn);
          Alcotest.(check (list int))
            (ctx "compulsory, capacity, conflict")
            [
              model.Ref_classifier.compulsory;
              model.Ref_classifier.capacity_misses;
              model.Ref_classifier.conflict;
            ]
            [ Mc.compulsory t; Mc.capacity_misses t; Mc.conflict t ]
        done;
        Alcotest.(check (list string))
          (Printf.sprintf "capacity %d, %d pids: self_check" capacity npids)
          [] (Mc.self_check t)
      done)
    [ 1; 2; 3; 5; 8; 16; 33; 64 ];
  Alcotest.(check int) "all three kinds occurred" 3 (Hashtbl.length kinds)

(* ------------------------------------------------------------------ *)
(* Packet.crc32 vs the bitwise definition.                            *)
(* ------------------------------------------------------------------ *)

let crc32_bitwise data =
  let c = ref 0xFFFFFFFFl in
  Bytes.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 0 to 7 do
        let shifted = Int32.shift_right_logical !c 1 in
        c :=
          if Int32.logand !c 1l <> 0l then Int32.logxor 0xEDB88320l shifted
          else shifted
      done)
    data;
  Int32.logxor !c 0xFFFFFFFFl

(* Random lengths up to 9,000 bytes, then every length from 0 to 64
   and from 4,088 to 4,104: each tail the 8-byte loop can leave, with
   no full word, a few words, and a page's worth of words. *)
let crc32_differential () =
  let rng = Rng.create ~seed in
  let check label len =
    let data = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    Alcotest.(check int32)
      (Printf.sprintf "crc32 of %d bytes%s" len label)
      (crc32_bitwise data)
      (Utlb_net.Packet.crc32 data)
  in
  for step = 1 to 200 do
    check (Printf.sprintf "@%d" step) (Rng.int rng 9_001)
  done;
  for len = 0 to 64 do
    check "" len
  done;
  for len = 4_088 to 4_104 do
    check "" len
  done

(* ------------------------------------------------------------------ *)
(* Instrumented runs must not perturb the model: for every engine and *)
(* paper workload, a replay with a full scope attached (sink +        *)
(* metrics) yields a report structurally equal to the bare replay.    *)
(* ------------------------------------------------------------------ *)

let report_t = Alcotest.testable Report.pp (fun a b -> a = b)

let reports_unperturbed () =
  let engines = Driver.Registry.mechanisms () in
  List.iter
    (fun (spec : Workloads.spec) ->
      let trace = spec.Workloads.generate ~seed:Driver.default_seed in
      List.iter
        (fun (entry : Driver.Registry.entry) ->
          let packed () = entry.Driver.Registry.of_params [] in
          let bare =
            Driver.run_packed ~label:spec.Workloads.name (packed ()) trace
          in
          let sink = Trace_sink.create () in
          let metrics = Metrics.create () in
          let obs = Scope.create ~sink ~metrics () in
          let observed =
            Driver.run_packed ~label:spec.Workloads.name ~obs (packed ())
              trace
          in
          Alcotest.check report_t
            (Printf.sprintf "%s/%s report unchanged under obs"
               entry.Driver.Registry.name spec.Workloads.name)
            bare observed)
        engines)
    Workloads.all


(* The replacement trackers of utlb, victima and utopia are kept
   current only when a pin limit or a tenancy can select from them.
   Skipping that upkeep must not show: on the quarter-size Table-3
   traces, a run without a limit and one whose 4096 MB limit no trace
   reaches (so its trackers are kept, and never asked for a victim)
   return the same outcome for every lookup and the same report. *)
let untracked_upkeep_unobservable () =
  let traces =
    List.map
      (fun (spec : Workloads.spec) ->
        ( spec.Workloads.name,
          (Workloads.scaled spec ~factor:0.25).Workloads.generate
            ~seed:Driver.default_seed ))
      Workloads.all
  in
  List.iter
    (fun name ->
      let run params trace =
        match Driver.Registry.resolve ~name ~params with
        | Error msg -> Alcotest.fail msg
        | Ok (Driver.Packed ((module E), config)) ->
          let engine = E.create ~seed:Driver.default_seed config in
          let outcomes = ref [] in
          Utlb_trace.Trace.iter trace (fun (r : Utlb_trace.Record.t) ->
              outcomes :=
                E.lookup engine ~pid:r.pid ~vpn:r.vpn ~npages:r.npages
                :: !outcomes);
          (List.rev !outcomes, E.report engine ~label:name)
      in
      List.iter
        (fun (app, trace) ->
          let ctx what = Printf.sprintf "%s/%s: %s" name app what in
          let outcomes, report = run [] trace in
          let limited_outcomes, limited_report =
            run [ ("limit-mb", "4096") ] trace
          in
          Alcotest.(check int) (ctx "the limit never evicts") 0
            limited_report.Report.pages_unpinned;
          Alcotest.(check bool)
            (ctx "same outcome for every lookup")
            true
            (outcomes = limited_outcomes);
          Alcotest.check report_t (ctx "same report") report limited_report)
        traces)
    [ "utlb"; "victima"; "utopia" ]

let suite =
  [
    Alcotest.test_case "bitvec differential" `Quick bitvec_differential;
    Alcotest.test_case "bitvec iter sets inside run" `Quick
      bitvec_iter_sets_inside_run;
    Alcotest.test_case "flat_map differential" `Quick flat_map_differential;
    Alcotest.test_case "translation_table differential" `Quick
      tt_differential;
    Alcotest.test_case "ni_cache differential (direct)" `Quick
      (ni_differential Ni.Direct);
    Alcotest.test_case "ni_cache differential (direct_nohash)" `Quick
      (ni_differential Ni.Direct_nohash);
    Alcotest.test_case "ni_cache differential (two_way)" `Quick
      (ni_differential Ni.Two_way);
    Alcotest.test_case "ni_cache differential (four_way)" `Quick
      (ni_differential Ni.Four_way);
    Alcotest.test_case "host_memory differential" `Quick host_differential;
    Alcotest.test_case "replacement differential (lru)" `Quick
      (replacement_differential Utlb.Replacement.Lru);
    Alcotest.test_case "replacement differential (mru)" `Quick
      (replacement_differential Utlb.Replacement.Mru);
    Alcotest.test_case "replacement differential (lfu)" `Quick
      (replacement_differential Utlb.Replacement.Lfu);
    Alcotest.test_case "replacement differential (mfu)" `Quick
      (replacement_differential Utlb.Replacement.Mfu);
    Alcotest.test_case "replacement differential (random)" `Quick
      (replacement_differential Utlb.Replacement.Random);
    Alcotest.test_case "frame_allocator differential" `Quick
      frame_allocator_differential;
    Alcotest.test_case "miss_classifier differential" `Quick
      classifier_differential;
    Alcotest.test_case "crc32 differential" `Quick crc32_differential;
    Alcotest.test_case "untracked replacement upkeep is unobservable" `Quick
      untracked_upkeep_unobservable;
    Alcotest.test_case "reports unchanged under instrumentation" `Slow
      reports_unperturbed;
  ]
