module Pid = Utlb_mem.Pid
module Host_memory = Utlb_mem.Host_memory
module Sram = Utlb_nic.Sram
module Rng = Utlb_sim.Rng

type t = {
  pid : Pid.t;
  host : Host_memory.t;
  table : int array; (* index -> frame; garbage marks free/invalid *)
  sram : (Sram.t * Sram.region) option;
  garbage : int;
  tree : Lookup_tree.t;
  tracker : Replacement.t;
  (* LIFO stack of free indices: top at [free_len - 1]. Seeded so the
     first pops come out 0, 1, 2, … like the old cons-list did. *)
  free : int array;
  mutable free_len : int;
  frame : int array; (* the frame of one pin call *)
  mutable occupancy : int;
  mutable pins : int;
  mutable unpins : int;
}

let create ?sram ~host ~pid ~table_entries ~policy ~seed () =
  if table_entries <= 0 then
    invalid_arg "Per_process.create: table_entries must be positive";
  Host_memory.add_process host pid;
  let sram =
    match sram with
    | None -> None
    | Some s ->
      let name = Printf.sprintf "pp-utlb-%d" (Pid.to_int pid) in
      Some (s, Sram.alloc s ~name ~length:(table_entries * 8))
  in
  let garbage = Host_memory.garbage_frame host in
  {
    pid;
    host;
    table = Array.make table_entries garbage;
    sram;
    garbage;
    tree = Lookup_tree.create ();
    tracker = Replacement.create policy ~rng:(Rng.create ~seed);
    free = Array.init table_entries (fun i -> table_entries - 1 - i);
    free_len = table_entries;
    frame = [| 0 |];
    occupancy = 0;
    pins = 0;
    unpins = 0;
  }

let pid t = t.pid

let table_entries t = Array.length t.table

let occupancy t = t.occupancy

let sram_bytes t = table_entries t * 8

let write_entry t index frame =
  t.table.(index) <- frame;
  match t.sram with
  | None -> ()
  | Some (sram, region) -> Sram.write_word sram region index (Int64.of_int frame)

let push_free t index =
  t.free.(t.free_len) <- index;
  t.free_len <- t.free_len + 1

(* Evict one page outside the in-flight buffer [vpn, vpn + npages):
   unpin it, invalidate its tree entry, free its index. *)
let evict_one t ~vpn ~npages =
  let victim = Replacement.select_outside t.tracker ~vpn ~npages in
  victim >= 0
  && begin
       let index = Lookup_tree.find t.tree victim in
       if index >= 0 then begin
         write_entry t index t.garbage;
         push_free t index;
         t.occupancy <- t.occupancy - 1
       end;
       Lookup_tree.remove t.tree victim;
       Host_memory.unpin t.host t.pid ~vpn:victim ~count:1;
       t.unpins <- t.unpins + 1;
       true
     end

let install t vpn =
  if t.free_len = 0 then
    invalid_arg "Per_process: no free index after eviction";
  if not (Host_memory.pin_into t.host t.pid ~vpn ~count:1 t.frame) then
    invalid_arg "Per_process: host out of memory";
  t.free_len <- t.free_len - 1;
  let index = t.free.(t.free_len) in
  write_entry t index t.frame.(0);
  Lookup_tree.set t.tree vpn ~index;
  Replacement.insert t.tracker vpn;
  t.occupancy <- t.occupancy + 1;
  t.pins <- t.pins + 1

let lookup t ~vpn ~npages =
  if npages < 1 then invalid_arg "Per_process.lookup: npages must be >= 1";
  if npages > table_entries t then
    invalid_arg "Per_process.lookup: buffer larger than translation table";
  (* Pages past the lookup tree's last entry get no index and are never
     pinned: the NI reads the garbage frame for them (UP02). Clipping
     the span first means nothing raises half way through it. *)
  let last = min (vpn + npages - 1) Lookup_tree.max_vpn in
  let missed = ref (last < vpn + npages - 1) in
  for page = vpn to last do
    if Lookup_tree.find t.tree page >= 0 then Replacement.touch t.tracker page
    else begin
      (* Capacity miss in the per-process table: evict until an index
         frees up (with nothing evictable, install raises). *)
      missed := true;
      while t.free_len = 0 && evict_one t ~vpn ~npages do
        ()
      done;
      install t page
    end
  done;
  !missed

let release t =
  let released = ref 0 in
  while evict_one t ~vpn:0 ~npages:0 do
    incr released
  done;
  !released

let translate_index t ~index =
  if index < 0 || index >= table_entries t then
    invalid_arg "Per_process.translate_index: index out of range";
  if t.table.(index) = t.garbage then None else Some t.table.(index)

let index t ~vpn = Lookup_tree.find t.tree vpn

let is_pinned t ~vpn = index t ~vpn >= 0

let pins t = t.pins

let unpins t = t.unpins

let self_check t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let filled =
    Array.fold_left
      (fun n frame -> if frame = t.garbage then n else n + 1)
      0 t.table
  in
  if filled <> t.occupancy then
    note "table holds %d live entries but occupancy counter says %d" filled
      t.occupancy;
  if Lookup_tree.entries t.tree <> t.occupancy then
    note "lookup tree tracks %d pages but occupancy counter says %d"
      (Lookup_tree.entries t.tree) t.occupancy;
  if Replacement.size t.tracker <> t.occupancy then
    note "replacement tracker holds %d pages but occupancy counter says %d"
      (Replacement.size t.tracker) t.occupancy;
  if t.free_len + t.occupancy <> Array.length t.table then
    note "free stack (%d) plus occupancy (%d) does not cover the table (%d)"
      t.free_len t.occupancy (Array.length t.table);
  let host_pinned = Host_memory.pinned_pages t.host t.pid in
  if host_pinned <> t.occupancy then
    note "host reports %d pinned pages but the table tracks %d (pin leak)"
      host_pinned t.occupancy;
  (* Every tracked page must map to a live, host-consistent entry. *)
  Lookup_tree.iter t.tree (fun vpn index ->
      if index < 0 || index >= Array.length t.table then
        note "vpn %#x maps to out-of-range index %d" vpn index
      else begin
        let frame = t.table.(index) in
        if frame = t.garbage then
          note "vpn %#x maps to index %d holding the garbage frame" vpn index
        else
          match Host_memory.translate t.host t.pid ~vpn with
          | Some f when f = frame -> ()
          | Some f ->
            note "vpn %#x: table frame %d disagrees with host frame %d" vpn
              frame f
          | None -> note "vpn %#x tracked but not resident on the host" vpn
      end);
  List.rev !problems
