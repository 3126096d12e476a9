let directory_bits = 10

let table_bits = 10

let table_entries = 1 lsl table_bits

let directory_entries = 1 lsl directory_bits

let max_vpn = (1 lsl (directory_bits + table_bits)) - 1

type pte = { frame : int; pinned : int }

(* Flat layout: second-level tables are [table_entries]-int blocks in
   two growable pools — one plane of frames (-1 = not resident) and one
   of pin counts — indexed by a directory of block ids. Residency
   checks, pin adjustments, and the OS fast paths below ([frame_of],
   [pin_of]) are bare int-array reads with no option or record
   allocation; [find] keeps the boxed pte interface for callers that
   want both fields at once. *)
type t = {
  dir_block : int array;
  mutable frames : int array;
  mutable pins : int array;
  mutable blocks : int;
  mutable resident : int;
  mutable tables : int;
}

let create () =
  {
    dir_block = Array.make directory_entries (-1);
    frames = [||];
    pins = [||];
    blocks = 0;
    resident = 0;
    tables = 0;
  }

let check_vpn vpn =
  if vpn < 0 || vpn > max_vpn then
    invalid_arg "Page_table: vpn out of range"

let alloc_block t =
  let needed = (t.blocks + 1) * table_entries in
  if needed > Array.length t.frames then begin
    let cap = max needed (max table_entries (2 * Array.length t.frames)) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 (t.blocks * table_entries);
      b
    in
    t.frames <- grow t.frames (-1);
    t.pins <- grow t.pins 0
  end;
  Array.fill t.frames (t.blocks * table_entries) table_entries (-1);
  Array.fill t.pins (t.blocks * table_entries) table_entries 0;
  let block = t.blocks in
  t.blocks <- t.blocks + 1;
  block

(* The slot of [vpn] in its block. The directory index is
   [vpn lsr table_bits]; both are computed where they are used, since
   a helper returning the pair would allocate it. *)
let index vpn = vpn land (table_entries - 1)

(* Pool offset of [vpn]'s slot, or -1 when its table was never
   allocated. *)
let slot_of t vpn =
  let block = t.dir_block.(vpn lsr table_bits) in
  if block < 0 then -1 else (block lsl table_bits) + index vpn

let find t vpn =
  check_vpn vpn;
  let slot = slot_of t vpn in
  if slot < 0 then None
  else
    let frame = t.frames.(slot) in
    if frame < 0 then None else Some { frame; pinned = t.pins.(slot) }

let frame_of t vpn =
  check_vpn vpn;
  let slot = slot_of t vpn in
  if slot < 0 then -1 else t.frames.(slot)

let pin_of t vpn =
  check_vpn vpn;
  let slot = slot_of t vpn in
  if slot < 0 then 0
  else if t.frames.(slot) < 0 then 0
  else t.pins.(slot)

let set t vpn ~frame =
  check_vpn vpn;
  let dir = vpn lsr table_bits in
  let block =
    match t.dir_block.(dir) with
    | -1 ->
      let block = alloc_block t in
      t.dir_block.(dir) <- block;
      t.tables <- t.tables + 1;
      block
    | block -> block
  in
  let slot = (block lsl table_bits) + index vpn in
  if t.frames.(slot) < 0 then begin
    t.resident <- t.resident + 1;
    t.pins.(slot) <- 0
  end;
  t.frames.(slot) <- frame

let remove t vpn =
  check_vpn vpn;
  let slot = slot_of t vpn in
  if slot >= 0 && t.frames.(slot) >= 0 then begin
    if t.pins.(slot) > 0 then invalid_arg "Page_table.remove: page is pinned";
    t.frames.(slot) <- -1;
    t.resident <- t.resident - 1
  end

let adjust_pin t vpn ~delta =
  check_vpn vpn;
  let slot = slot_of t vpn in
  if slot < 0 || t.frames.(slot) < 0 then
    invalid_arg "Page_table.adjust_pin: page not resident";
  let pinned = t.pins.(slot) + delta in
  if pinned < 0 then invalid_arg "Page_table.adjust_pin: negative pin count";
  t.pins.(slot) <- pinned;
  pinned

let resident_count t = t.resident

let pinned_count t =
  let n = ref 0 in
  for slot = 0 to (t.blocks * table_entries) - 1 do
    if t.frames.(slot) >= 0 && t.pins.(slot) > 0 then incr n
  done;
  !n

let second_level_tables t = t.tables

let iter t f =
  for dir = 0 to directory_entries - 1 do
    let block = t.dir_block.(dir) in
    if block >= 0 then
      let base = block lsl table_bits in
      for idx = 0 to table_entries - 1 do
        let frame = t.frames.(base + idx) in
        if frame >= 0 then
          f ((dir lsl table_bits) lor idx) { frame; pinned = t.pins.(base + idx) }
      done
  done
