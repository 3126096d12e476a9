type command =
  | Send of { lvaddr : int; nbytes : int; dest_node : int; dest_import : int }
  | Fetch of { lvaddr : int; nbytes : int; src_node : int; src_import : int }
  | Redirect of { import_id : int; new_vaddr : int }
  | Noop

(* Each slot is five 8-byte SRAM words: tag + four arguments. The ring
   indices live in the OCaml record, standing in for the LANai's ring
   registers. *)
let words_per_slot = 5

type t = {
  sram : Sram.t;
  region : Sram.region;
  pid : Utlb_mem.Pid.t;
  slots : int;
  mutable head : int; (* next slot firmware reads *)
  mutable tail : int; (* next slot user writes *)
  mutable pending : int;
}

let create sram ~pid ~slots =
  if slots <= 0 then invalid_arg "Command_queue.create: slots must be positive";
  let name = Printf.sprintf "cmdq-%d" (Utlb_mem.Pid.to_int pid) in
  let region = Sram.alloc sram ~name ~length:(slots * words_per_slot * 8) in
  { sram; region; pid; slots; head = 0; tail = 0; pending = 0 }

let pid t = t.pid

let capacity t = t.slots

let tag_of = function
  | Send _ -> 1L
  | Fetch _ -> 2L
  | Redirect _ -> 3L
  | Noop -> 4L

let args_of = function
  | Send { lvaddr; nbytes; dest_node; dest_import } ->
    [| lvaddr; nbytes; dest_node; dest_import |]
  | Fetch { lvaddr; nbytes; src_node; src_import } ->
    [| lvaddr; nbytes; src_node; src_import |]
  | Redirect { import_id; new_vaddr } -> [| import_id; new_vaddr; 0; 0 |]
  | Noop -> [| 0; 0; 0; 0 |]

let write_slot t slot cmd =
  let base = slot * words_per_slot in
  Sram.write_word t.sram t.region base (tag_of cmd);
  Array.iteri
    (fun i a -> Sram.write_word t.sram t.region (base + 1 + i) (Int64.of_int a))
    (args_of cmd)

let read_slot t slot =
  let base = slot * words_per_slot in
  let tag = Sram.read_word t.sram t.region base in
  let arg i = Int64.to_int (Sram.read_word t.sram t.region (base + 1 + i)) in
  match tag with
  | 1L ->
    Send
      { lvaddr = arg 0; nbytes = arg 1; dest_node = arg 2; dest_import = arg 3 }
  | 2L ->
    Fetch
      { lvaddr = arg 0; nbytes = arg 1; src_node = arg 2; src_import = arg 3 }
  | 3L -> Redirect { import_id = arg 0; new_vaddr = arg 1 }
  | 4L -> Noop
  | _ -> failwith "Command_queue: corrupt slot tag"

let post t cmd =
  if t.pending >= t.slots then false
  else begin
    write_slot t t.tail cmd;
    t.tail <- (t.tail + 1) mod t.slots;
    t.pending <- t.pending + 1;
    true
  end

let poll t =
  if t.pending = 0 then None
  else begin
    let cmd = read_slot t t.head in
    t.head <- (t.head + 1) mod t.slots;
    t.pending <- t.pending - 1;
    Some cmd
  end

let pending t = t.pending
