type kind = Data | Ack of int | Nack of int

type t = {
  src : int;
  dst : int;
  chan : int;
  seq : int;
  kind : kind;
  route : int list;
  payload : bytes;
  crc : int32;
}

let header_bytes = 16

(* CRC-32 (IEEE 802.3 polynomial, reflected), sliced by 8 on native
   ints: the 32-bit register fits an OCaml int, so the loop allocates
   nothing and converts to [int32] once at the end.

   [tables] holds eight 256-entry tables back to back. Table 0 is the
   classic byte table; table [k] advances a byte through [k] more zero
   bytes, [T_k(n) = T_(k-1)(n) lsr 8 lxor T_0(T_(k-1)(n) land 0xFF)].
   One step reads eight bytes with [Bytes.get_int64_le], folds the
   register into the low four, and looks each byte up in the table for
   its distance from the end of the word; the byte loop only runs the
   last [len mod 8] bytes. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let crc32 data =
  let len = Bytes.length data in
  let c = ref 0xFFFFFFFF in
  let i = ref 0 in
  while !i + 8 <= len do
    let word = Bytes.get_int64_le data !i in
    let lo = !c lxor (Int64.to_int word land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical word 32) in
    c :=
      Array.unsafe_get tables ((7 * 256) + (lo land 0xFF))
      lxor Array.unsafe_get tables ((6 * 256) + ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get tables ((5 * 256) + ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get tables ((4 * 256) + (lo lsr 24))
      lxor Array.unsafe_get tables ((3 * 256) + (hi land 0xFF))
      lxor Array.unsafe_get tables ((2 * 256) + ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get tables (256 + ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get tables (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to len - 1 do
    c :=
      Array.unsafe_get tables
        ((!c lxor Char.code (Bytes.unsafe_get data j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let make ~src ~dst ~chan ~seq ~kind ~route ~payload =
  { src; dst; chan; seq; kind; route; payload; crc = crc32 payload }

let wire_size t = header_bytes + Bytes.length t.payload

let intact t = Int32.equal (crc32 t.payload) t.crc

let corrupt t =
  if Bytes.length t.payload = 0 then { t with crc = Int32.lognot t.crc }
  else begin
    let payload = Bytes.copy t.payload in
    Bytes.set payload 0 (Char.chr (Char.code (Bytes.get payload 0) lxor 0x01));
    { t with payload }
  end

let pp ppf t =
  let kind =
    match t.kind with
    | Data -> Printf.sprintf "data#%d" t.seq
    | Ack n -> Printf.sprintf "ack<=%d" n
    | Nack n -> Printf.sprintf "nack@%d" n
  in
  Format.fprintf ppf "[%d->%d chan=%d %s %dB]" t.src t.dst t.chan kind
    (Bytes.length t.payload)
