let directory_bits = 10

let table_bits = 10

let table_entries = 1 lsl table_bits

let directory_entries = 1 lsl directory_bits

let max_vpn = (1 lsl (directory_bits + table_bits)) - 1

let memory_references = 2

(* The directory maps each top-level index to a block in one flat node
   pool (-1 = no second-level node yet); blocks are [table_entries]
   ints, -1 marking an invalid entry. Allocating from the pool instead
   of boxing each second-level table keeps lookups to two int-array
   reads with no option header between them. *)
type t = {
  directory : int array;
  mutable pool : int array;
  mutable blocks : int;
  mutable entries : int;
}

let create () =
  {
    directory = Array.make directory_entries (-1);
    pool = [||];
    blocks = 0;
    entries = 0;
  }

let check_vpn vpn =
  if vpn < 0 || vpn > max_vpn then invalid_arg "Lookup_tree: vpn out of range"

let index_mask = table_entries - 1

let alloc_block t =
  let needed = (t.blocks + 1) * table_entries in
  if needed > Array.length t.pool then begin
    let cap = max needed (max table_entries (2 * Array.length t.pool)) in
    let bigger = Array.make cap (-1) in
    Array.blit t.pool 0 bigger 0 (t.blocks * table_entries);
    t.pool <- bigger
  end;
  Array.fill t.pool (t.blocks * table_entries) table_entries (-1);
  let block = t.blocks in
  t.blocks <- t.blocks + 1;
  block

let find t vpn =
  check_vpn vpn;
  let block = t.directory.(vpn lsr table_bits) in
  if block < 0 then -1
  else t.pool.((block lsl table_bits) + (vpn land index_mask))

let set t vpn ~index =
  check_vpn vpn;
  if index < 0 then invalid_arg "Lookup_tree.set: negative index";
  let dir = vpn lsr table_bits in
  let block =
    match t.directory.(dir) with
    | -1 ->
      let block = alloc_block t in
      t.directory.(dir) <- block;
      block
    | block -> block
  in
  let slot = (block lsl table_bits) + (vpn land index_mask) in
  if t.pool.(slot) < 0 then t.entries <- t.entries + 1;
  t.pool.(slot) <- index

let remove t vpn =
  check_vpn vpn;
  let block = t.directory.(vpn lsr table_bits) in
  if block >= 0 then begin
    let slot = (block lsl table_bits) + (vpn land index_mask) in
    if t.pool.(slot) >= 0 then begin
      t.pool.(slot) <- -1;
      t.entries <- t.entries - 1
    end
  end

let entries t = t.entries

let iter t f =
  for dir = 0 to directory_entries - 1 do
    let block = t.directory.(dir) in
    if block >= 0 then
      let base = block lsl table_bits in
      for idx = 0 to table_entries - 1 do
        let v = t.pool.(base + idx) in
        if v >= 0 then f ((dir lsl table_bits) lor idx) v
      done
  done
