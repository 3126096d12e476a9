(* Packed bitset on a flat, growable int array. Words hold 62 bits
   (not 63) so every mask stays positive on 63-bit native ints, which
   keeps the word-wise comparisons below branch-free. The array grows
   on demand, so a 4 GB address space with a few thousand pinned pages
   still costs only as many words as the highest pinned page needs.
   Word index and bit are computed inline, never returned as a pair:
   without flambda a returned tuple is allocated. *)
let bits_per_chunk = 62

let full_chunk = (1 lsl bits_per_chunk) - 1

type t = {
  mutable chunks : int array;
  mutable population : int;
}

let create () = { chunks = Array.make 64 0; population = 0 }

let check_vpn vpn = if vpn < 0 then invalid_arg "Bitvec: negative vpn"

let grow t idx =
  let cap = ref (Array.length t.chunks) in
  while idx >= !cap do
    cap := !cap * 2
  done;
  let bigger = Array.make !cap 0 in
  Array.blit t.chunks 0 bigger 0 (Array.length t.chunks);
  t.chunks <- bigger

(* Reads past the allocated prefix see zero bits; only [set] grows. *)
let chunk t idx = if idx < Array.length t.chunks then t.chunks.(idx) else 0

let test t vpn =
  check_vpn vpn;
  chunk t (vpn / bits_per_chunk) land (1 lsl (vpn mod bits_per_chunk)) <> 0

let set t vpn =
  check_vpn vpn;
  let idx = vpn / bits_per_chunk in
  if idx >= Array.length t.chunks then grow t idx;
  let word = t.chunks.(idx) in
  let mask = 1 lsl (vpn mod bits_per_chunk) in
  if word land mask = 0 then begin
    t.chunks.(idx) <- word lor mask;
    t.population <- t.population + 1
  end

let clear t vpn =
  check_vpn vpn;
  let idx = vpn / bits_per_chunk in
  if idx < Array.length t.chunks then begin
    let word = t.chunks.(idx) in
    let mask = 1 lsl (vpn mod bits_per_chunk) in
    if word land mask <> 0 then begin
      t.chunks.(idx) <- word land lnot mask;
      t.population <- t.population - 1
    end
  end

let check_range count =
  if count <= 0 then invalid_arg "Bitvec: count must be positive"

(* Kernighan popcount; words are 62-bit so the loop runs at most 62
   times and usually far fewer. *)
let popcount word =
  let n = ref 0 in
  let w = ref word in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr n
  done;
  !n

let recount t = Array.fold_left (fun n word -> n + popcount word) 0 t.chunks

(* Mask of the bits of [chunk idx] that fall inside [vpn, vpn+count):
   all 62 bits except a low and a high margin. *)
let range_mask ~lo ~hi = full_chunk lsr (bits_per_chunk - 1 - hi) land lnot ((1 lsl lo) - 1)

(* Lowest page of the range whose bit, xor-ed with [flip], is set, or
   -1: [flip = full_chunk] finds a clear page, [flip = 0] a set one. *)
let first_where t ~flip ~vpn ~count =
  check_vpn vpn;
  check_range count;
  let last = vpn + count - 1 in
  let idx1 = last / bits_per_chunk in
  let idx = ref (vpn / bits_per_chunk) and lo = ref (vpn mod bits_per_chunk) in
  let found = ref (-1) in
  while !found < 0 && !idx <= idx1 do
    let hi =
      if !idx = idx1 then last mod bits_per_chunk else bits_per_chunk - 1
    in
    let hits = (chunk t !idx lxor flip) land range_mask ~lo:!lo ~hi in
    if hits <> 0 then begin
      let bit = ref !lo in
      while hits land (1 lsl !bit) = 0 do
        incr bit
      done;
      found := (!idx * bits_per_chunk) + !bit
    end;
    incr idx;
    lo := 0
  done;
  !found

let first_clear t ~vpn ~count = first_where t ~flip:full_chunk ~vpn ~count

let first_set t ~vpn ~count = first_where t ~flip:0 ~vpn ~count

let all_set t ~vpn ~count = first_clear t ~vpn ~count < 0

(* Number of clear pages in the range, word-wise. *)
let clear_count t ~vpn ~count =
  check_vpn vpn;
  check_range count;
  let last = vpn + count - 1 in
  let idx0 = vpn / bits_per_chunk and idx1 = last / bits_per_chunk in
  let n = ref 0 in
  for idx = idx0 to idx1 do
    let lo = if idx = idx0 then vpn mod bits_per_chunk else 0 in
    let hi =
      if idx = idx1 then last mod bits_per_chunk else bits_per_chunk - 1
    in
    n := !n + popcount (lnot (chunk t idx) land range_mask ~lo ~hi)
  done;
  !n

let population t = t.population
