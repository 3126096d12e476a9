module Pid_table = Hashtbl.Make (struct
  type t = Pid.t

  let equal = Pid.equal

  let hash = Pid.hash
end)

type pin_error = [ `Out_of_memory ]

type process = { table : Page_table.t; mutable pinned : int }

(* Owners are packed as [(pid lsl vpn_bits) lor vpn]: vpns fit in the
   page table's 20 bits. *)
let vpn_bits = Page_table.directory_bits + Page_table.table_bits

let no_owner = -1

type t = {
  frames : Frame_allocator.t;
  procs : process Pid_table.t;
  (* frame -> packed (pid, vpn) or [no_owner]; grown to the highest
     frame handed out. *)
  mutable owner : int array;
  (* Distinct pinned pages over all processes. *)
  mutable pinned : int;
  mutable clock_hand : int;
  mutable faults : int;
  mutable evictions : int;
  mutable pin_calls : int;
  mutable pages_pinned : int;
  mutable unpin_calls : int;
  mutable pages_unpinned : int;
}

let create ?(frames = 65536) () =
  (* First, so that a bad [frames] fails with the allocator's message. *)
  let allocator = Frame_allocator.create ~frames in
  {
    frames = allocator;
    procs = Pid_table.create 8;
    owner = Array.make (min frames 1024) no_owner;
    pinned = 0;
    clock_hand = 1;
    faults = 0;
    evictions = 0;
    pin_calls = 0;
    pages_pinned = 0;
    unpin_calls = 0;
    pages_unpinned = 0;
  }

let add_process t pid =
  if not (Pid_table.mem t.procs pid) then
    Pid_table.replace t.procs pid { table = Page_table.create (); pinned = 0 }

let has_process t pid = Pid_table.mem t.procs pid

let proc t pid =
  match Pid_table.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg "Host_memory: unknown process"

let garbage_frame t = Frame_allocator.garbage_frame t.frames

let translate t pid ~vpn =
  let p = proc t pid in
  let frame = Page_table.frame_of p.table vpn in
  if frame < 0 then None else Some frame

let owner_of t frame =
  if frame >= 0 && frame < Array.length t.owner then t.owner.(frame)
  else no_owner

let set_owner t frame packed =
  let len = Array.length t.owner in
  if frame >= len then begin
    let total = Frame_allocator.total t.frames in
    let bigger = Array.make (max (frame + 1) (min total (2 * len))) no_owner in
    Array.blit t.owner 0 bigger 0 len;
    t.owner <- bigger
  end;
  t.owner.(frame) <- packed

(* Clock scan for an unpinned resident frame to evict. It runs only
   when no frame is free, so every frame but the garbage one backs a
   resident page; when all those pages are pinned the scan would visit
   [total - 1] frames, find nothing and leave the hand where it
   started, so it is skipped. *)
let try_evict t =
  let total = Frame_allocator.total t.frames in
  let rec scan remaining =
    if remaining = 0 then false
    else begin
      let f = t.clock_hand in
      t.clock_hand <- if f + 1 >= total then 1 else f + 1;
      let packed = owner_of t f in
      if packed = no_owner then scan (remaining - 1)
      else begin
        let p = Pid_table.find t.procs (Pid.of_int (packed lsr vpn_bits)) in
        let vpn = packed land Page_table.max_vpn in
        if Page_table.frame_of p.table vpn >= 0 && Page_table.pin_of p.table vpn = 0
        then begin
          Page_table.remove p.table vpn;
          t.owner.(f) <- no_owner;
          Frame_allocator.free t.frames f;
          t.evictions <- t.evictions + 1;
          true
        end
        else scan (remaining - 1)
      end
    end
  in
  t.pinned < total - 1 && scan (total - 1)

let rec alloc_frame t =
  match Frame_allocator.alloc t.frames with
  | Some f -> Some f
  | None -> if try_evict t then alloc_frame t else None

let ensure_resident t pid ~vpn =
  let p = proc t pid in
  let frame = Page_table.frame_of p.table vpn in
  if frame >= 0 then Ok frame
  else
    match alloc_frame t with
    | None -> Error `Out_of_memory
    | Some f ->
      Page_table.set p.table vpn ~frame:f;
      set_owner t f ((Pid.to_int pid lsl vpn_bits) lor vpn);
      t.faults <- t.faults + 1;
      Ok f

(* Move one page's pin count by [delta] (+1 or -1), keeping the
   process's and the host's pinned-page counts in step. *)
let adjust_pin t p vpn ~delta =
  let now = Page_table.adjust_pin p.table vpn ~delta in
  if now = (if delta > 0 then 1 else 0) then begin
    p.pinned <- p.pinned + delta;
    t.pinned <- t.pinned + delta
  end

let pin t pid ~vpn ~count =
  if count <= 0 then invalid_arg "Host_memory.pin: count must be positive";
  let p = proc t pid in
  if vpn < 0 || vpn + count - 1 > Page_table.max_vpn then
    invalid_arg "Host_memory.pin: vpn out of range";
  let frames = Array.make count 0 in
  let rec pin_from i =
    if i = count then Ok frames
    else
      match ensure_resident t pid ~vpn:(vpn + i) with
      | Error _ as e ->
        (* Roll back the pages this call already pinned. *)
        for j = 0 to i - 1 do
          adjust_pin t p (vpn + j) ~delta:(-1)
        done;
        e
      | Ok f ->
        frames.(i) <- f;
        adjust_pin t p (vpn + i) ~delta:1;
        pin_from (i + 1)
  in
  match pin_from 0 with
  | Ok _ as ok ->
    t.pin_calls <- t.pin_calls + 1;
    t.pages_pinned <- t.pages_pinned + count;
    ok
  | Error _ as e -> e

let unpin t pid ~vpn ~count =
  if count <= 0 then invalid_arg "Host_memory.unpin: count must be positive";
  let p = proc t pid in
  (* Validate the whole range first so the operation is all-or-nothing. *)
  for i = 0 to count - 1 do
    if Page_table.pin_of p.table (vpn + i) <= 0 then
      invalid_arg "Host_memory.unpin: page not pinned"
  done;
  for i = 0 to count - 1 do
    adjust_pin t p (vpn + i) ~delta:(-1)
  done;
  t.unpin_calls <- t.unpin_calls + 1;
  t.pages_unpinned <- t.pages_unpinned + count

let is_pinned t pid ~vpn =
  let p = proc t pid in
  Page_table.pin_of p.table vpn > 0

let pin_count t pid ~vpn =
  let p = proc t pid in
  Page_table.pin_of p.table vpn

let pinned_pages t pid = (proc t pid).pinned

let recount_pinned t pid = Page_table.pinned_count (proc t pid).table

let frame_owner t ~frame =
  let packed = owner_of t frame in
  if packed = no_owner then None
  else Some (Pid.of_int (packed lsr vpn_bits), packed land Page_table.max_vpn)

let resident_pages t pid = Page_table.resident_count (proc t pid).table

let free_frames t = Frame_allocator.free_count t.frames

let faults t = t.faults

let evictions t = t.evictions

let pin_calls t = t.pin_calls

let pages_pinned t = t.pages_pinned

let unpin_calls t = t.unpin_calls

let pages_unpinned t = t.pages_unpinned

let reset_counters t =
  t.faults <- 0;
  t.evictions <- 0;
  t.pin_calls <- 0;
  t.pages_pinned <- 0;
  t.unpin_calls <- 0;
  t.pages_unpinned <- 0
