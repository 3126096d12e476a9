module Sram = Utlb_nic.Sram
module Pid = Utlb_mem.Pid

let directory_bits = 10

let table_bits = 10

let table_entries = 1 lsl table_bits

let directory_entries = 1 lsl directory_bits

let max_vpn = (1 lsl (directory_bits + table_bits)) - 1

let garbage_entry = -1

(* Flat layout: every second-level table is a [table_entries]-int block
   in one growable pool, and the directory is two int arrays — the
   block id backing each slot (-1 = never allocated; swapped tables
   keep their block so [swap_in] restores entries in place) and a state
   word: [state_empty], [state_resident], or [-(disk_block + 1)] for a
   swapped table. The NI lookup is then two int-array reads, and its
   result one int. *)
let state_empty = 0

let state_resident = 1

type t = {
  pid : Pid.t;
  garbage : int;
  dir_state : int array;
  dir_block : int array;
  mutable pool : int array;
  mutable blocks : int;
  (* Mirror of the directory's presence bits in NI SRAM, when given. *)
  sram_dir : (Sram.t * Sram.region) option;
  mutable valid : int;
  mutable resident_tables : int;
  mutable swapped : int;
}

let create ?sram ~garbage_frame ~pid () =
  let sram_dir =
    match sram with
    | None -> None
    | Some sram ->
      let name = Printf.sprintf "utlb-dir-%d" (Pid.to_int pid) in
      Some (sram, Sram.alloc sram ~name ~length:(directory_entries * 8))
  in
  {
    pid;
    garbage = garbage_frame;
    dir_state = Array.make directory_entries state_empty;
    dir_block = Array.make directory_entries (-1);
    pool = [||];
    blocks = 0;
    sram_dir;
    valid = 0;
    resident_tables = 0;
    swapped = 0;
  }

let pid t = t.pid

let garbage_frame t = t.garbage

let check_vpn vpn =
  if vpn < 0 || vpn > max_vpn then
    invalid_arg "Translation_table: vpn out of range"

(* A vpn splits into its directory slot [vpn lsr table_bits] and its
   index [vpn land index_mask] in that slot's table. *)
let index_mask = table_entries - 1

(* Keep the SRAM copy of a directory word in sync: positive values are
   "host physical address" of the table (we store the index), negative
   values encode a disk block for swapped tables, zero is empty. *)
let sync_dir t dir =
  match t.sram_dir with
  | None -> ()
  | Some (sram, region) ->
    let state = t.dir_state.(dir) in
    let word =
      if state = state_empty then 0L
      else if state = state_resident then Int64.of_int (dir + 1)
      else Int64.of_int state (* already -(disk_block + 1) *)
    in
    Sram.write_word sram region dir word

let alloc_block t =
  let needed = (t.blocks + 1) * table_entries in
  if needed > Array.length t.pool then begin
    let cap = max needed (max table_entries (2 * Array.length t.pool)) in
    let bigger = Array.make cap t.garbage in
    Array.blit t.pool 0 bigger 0 (t.blocks * table_entries);
    t.pool <- bigger
  end;
  Array.fill t.pool (t.blocks * table_entries) table_entries t.garbage;
  let block = t.blocks in
  t.blocks <- t.blocks + 1;
  block

(* Base offset of [dir]'s block in the pool, allocating on first touch.
   Negative when the table is swapped out. *)
let base_for t dir =
  let state = t.dir_state.(dir) in
  if state = state_resident then t.dir_block.(dir) lsl table_bits
  else if state = state_empty then begin
    let block =
      match t.dir_block.(dir) with
      | -1 ->
        let block = alloc_block t in
        t.dir_block.(dir) <- block;
        block
      | block -> block
    in
    t.dir_state.(dir) <- state_resident;
    t.resident_tables <- t.resident_tables + 1;
    sync_dir t dir;
    block lsl table_bits
  end
  else -1

let install t ~vpn ~frame =
  check_vpn vpn;
  if frame < 0 then invalid_arg "Translation_table.install: negative frame";
  let base = base_for t (vpn lsr table_bits) in
  let idx = vpn land index_mask in
  if base < 0 then invalid_arg "Translation_table.install: table is swapped out";
  let old = t.pool.(base + idx) in
  if old = t.garbage && frame <> t.garbage then t.valid <- t.valid + 1;
  if old <> t.garbage && frame = t.garbage then t.valid <- t.valid - 1;
  t.pool.(base + idx) <- frame

let invalidate t ~vpn =
  check_vpn vpn;
  let dir = vpn lsr table_bits in
  let state = t.dir_state.(dir) in
  if state <> state_empty then
    if state <> state_resident then
      invalid_arg "Translation_table.invalidate: table is swapped out"
    else begin
      let slot = (t.dir_block.(dir) lsl table_bits) + (vpn land index_mask) in
      if t.pool.(slot) <> t.garbage then begin
        t.pool.(slot) <- t.garbage;
        t.valid <- t.valid - 1
      end
    end

let lookup t ~vpn =
  check_vpn vpn;
  let dir = vpn lsr table_bits in
  let state = t.dir_state.(dir) in
  if state = state_resident then begin
    let frame =
      t.pool.((t.dir_block.(dir) lsl table_bits) + (vpn land index_mask))
    in
    if frame = t.garbage then garbage_entry else frame
  end
  else if state = state_empty then garbage_entry
  else state - 1 (* -(disk_block + 2) *)

let valid_entries t = t.valid

let second_level_tables t = t.resident_tables

let swap_out t ~dir_index ~disk_block =
  if dir_index < 0 || dir_index >= directory_entries then
    invalid_arg "Translation_table.swap_out: index out of range";
  if t.dir_state.(dir_index) <> state_resident then false
  else begin
    t.dir_state.(dir_index) <- -(disk_block + 1);
    t.resident_tables <- t.resident_tables - 1;
    t.swapped <- t.swapped + 1;
    sync_dir t dir_index;
    true
  end

let swap_in t ~dir_index =
  if dir_index < 0 || dir_index >= directory_entries then
    invalid_arg "Translation_table.swap_in: index out of range";
  let state = t.dir_state.(dir_index) in
  if state = state_empty || state = state_resident then false
  else begin
    (* The block kept its entries while swapped; just flip the state. *)
    t.dir_state.(dir_index) <- state_resident;
    t.resident_tables <- t.resident_tables + 1;
    t.swapped <- t.swapped - 1;
    sync_dir t dir_index;
    true
  end

let swapped_tables t = t.swapped

let iter_valid t f =
  for dir = 0 to directory_entries - 1 do
    if t.dir_state.(dir) = state_resident then begin
      let base = t.dir_block.(dir) lsl table_bits in
      for idx = 0 to table_entries - 1 do
        let frame = t.pool.(base + idx) in
        if frame <> t.garbage then f ((dir lsl table_bits) lor idx) frame
      done
    end
  done
