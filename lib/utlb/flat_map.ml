(* Open-addressed hash map from non-negative int keys to a pair of int
   values, linear probing over a power-of-two table. This is the flat
   replacement for the tuple-keyed Hashtbls on the translation hot
   path: a probe is a multiply, a mask, and a short scan of one int
   array, with the payloads in parallel arrays — no boxing, no bucket
   chains. Deletion uses tombstones ([tomb]); the table rehashes when
   a new key would take live + tombstone slots past 3/4 of capacity. *)

let empty = -1

let tomb = -2

type t = {
  mutable keys : int array;
  mutable v0 : int array;
  mutable v1 : int array;
  mutable mask : int;
  mutable live : int;
  mutable used : int; (* live + tombstones *)
}

let create () =
  {
    keys = Array.make 16 empty;
    v0 = Array.make 16 0;
    v1 = Array.make 16 0;
    mask = 15;
    live = 0;
    used = 0;
  }

let length t = t.live

(* Knuth multiplicative hash; keys are page numbers or packed
   (pid, vpn) words, so scrambling the low bits is what matters. *)
let slot_of t key = key * 2654435761 land t.mask

let check_key key = if key < 0 then invalid_arg "Flat_map: negative key"

(* Slot holding [key], or -1. *)
let find t key =
  check_key key;
  let i = ref (slot_of t key) in
  let found = ref (-1) in
  let continue = ref true in
  while !continue do
    let k = t.keys.(!i) in
    if k = key then begin
      found := !i;
      continue := false
    end
    else if k = empty then continue := false
    else i := (!i + 1) land t.mask
  done;
  !found

let mem t key = find t key >= 0

let value0 t slot = t.v0.(slot)

let value1 t slot = t.v1.(slot)

let set_value0 t slot v = t.v0.(slot) <- v

let set_value1 t slot v = t.v1.(slot) <- v

let key_at t slot = t.keys.(slot)

let slots t = Array.length t.keys

let rec grow t =
  let cap = Array.length t.keys in
  (* Double only when most of the pressure is live entries; a table
     full of tombstones rehashes at the same size. *)
  let cap = if t.live * 2 >= cap then cap * 2 else cap in
  let keys = Array.make cap empty in
  let v0 = Array.make cap 0 in
  let v1 = Array.make cap 0 in
  let old_keys = t.keys and old_v0 = t.v0 and old_v1 = t.v1 in
  t.keys <- keys;
  t.v0 <- v0;
  t.v1 <- v1;
  t.mask <- cap - 1;
  t.live <- 0;
  t.used <- 0;
  Array.iteri
    (fun i k -> if k >= 0 then add t k ~v0:old_v0.(i) ~v1:old_v1.(i) |> ignore)
    old_keys

(* Insert or update; returns the slot now holding [key]. One probe
   finds the key or the slot a new key takes (the first tombstone
   passed, else the empty slot that ended the scan); only a new key can
   grow the table, so updating a present key never rehashes. *)
and add t key ~v0 ~v1 =
  check_key key;
  let keys = t.keys in
  let i = ref (slot_of t key) in
  let k = ref keys.(!i) in
  let tomb_at = ref (-1) in
  while !k <> key && !k <> empty do
    if !k = tomb && !tomb_at < 0 then tomb_at := !i;
    i := (!i + 1) land t.mask;
    k := keys.(!i)
  done;
  if !k = key then begin
    t.v0.(!i) <- v0;
    t.v1.(!i) <- v1;
    !i
  end
  else if 4 * (t.used + 1) > 3 * Array.length keys then begin
    grow t;
    add t key ~v0 ~v1
  end
  else begin
    let slot =
      if !tomb_at >= 0 then !tomb_at
      else begin
        t.used <- t.used + 1;
        !i
      end
    in
    keys.(slot) <- key;
    t.live <- t.live + 1;
    t.v0.(slot) <- v0;
    t.v1.(slot) <- v1;
    slot
  end

let remove t key =
  let slot = find t key in
  if slot >= 0 then begin
    t.keys.(slot) <- tomb;
    t.live <- t.live - 1
  end

let iter t f =
  Array.iteri
    (fun i k -> if k >= 0 then f k ~v0:t.v0.(i) ~v1:t.v1.(i))
    t.keys
