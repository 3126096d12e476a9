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

(* CRC-32 (IEEE 802.3 polynomial), table-driven on native ints: the
   32-bit register fits an OCaml int, so the loop allocates nothing and
   converts to [int32] once at the end. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 data =
  let c = ref 0xFFFFFFFF in
  for i = 0 to Bytes.length data - 1 do
    c :=
      crc_table.((!c lxor Char.code (Bytes.unsafe_get data i)) land 0xFF)
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
