(* Frames are handed out from a stack of freed frames first, the frame
   freed last on top, then from [next], the lowest frame never handed
   out. Creation allocates nothing per frame, and [alloc] returns an
   int. *)
type t = {
  total : int;
  mutable next : int;
  mutable freed : int array;
  mutable freed_len : int;
  allocated : Bytes.t; (* one byte per frame: 1 = allocated *)
}

let garbage = 0

let create ~frames =
  if frames < 2 then invalid_arg "Frame_allocator.create: need >= 2 frames";
  let allocated = Bytes.make frames '\000' in
  Bytes.set allocated garbage '\001';
  { total = frames; next = garbage + 1; freed = [||]; freed_len = 0; allocated }

let garbage_frame _ = garbage

let total t = t.total

let free_count t = t.freed_len + (t.total - t.next)

let in_use t = t.total - free_count t

let alloc t =
  let f =
    if t.freed_len > 0 then begin
      t.freed_len <- t.freed_len - 1;
      t.freed.(t.freed_len)
    end
    else if t.next < t.total then begin
      let f = t.next in
      t.next <- f + 1;
      f
    end
    else -1
  in
  if f >= 0 then Bytes.set t.allocated f '\001';
  f

let free t f =
  if f = garbage then invalid_arg "Frame_allocator.free: garbage frame";
  if f < 0 || f >= t.total then
    invalid_arg "Frame_allocator.free: frame out of range";
  if Bytes.get t.allocated f = '\000' then
    invalid_arg "Frame_allocator.free: double free";
  Bytes.set t.allocated f '\000';
  if t.freed_len = Array.length t.freed then begin
    (* At most [total - 1] frames are ever free at once. *)
    let bigger = Array.make (min t.total (max 16 (2 * t.freed_len))) 0 in
    Array.blit t.freed 0 bigger 0 t.freed_len;
    t.freed <- bigger
  end;
  t.freed.(t.freed_len) <- f;
  t.freed_len <- t.freed_len + 1

let is_allocated t f =
  f >= 0 && f < t.total && Bytes.get t.allocated f = '\001'
