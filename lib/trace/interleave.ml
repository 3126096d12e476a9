module Rng = Utlb_sim.Rng
module Pid = Utlb_mem.Pid

(* Parallel arrays rather than an array of event records: a stream's
   storage is three arrays, allocated once at the generator's size
   hint (past 256 words, straight into the major heap), not one
   minor-heap record per event. *)
type stream = {
  mutable vpns : int array;
  mutable npages : int array;
  mutable ops : Record.op array;
  mutable len : int;
}

let stream capacity =
  let capacity = max 1 capacity in
  {
    vpns = Array.make capacity 0;
    npages = Array.make capacity 0;
    ops = Array.make capacity Record.Send;
    len = 0;
  }

let grow s =
  let extend a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 s.len;
    b
  in
  s.vpns <- extend s.vpns 0;
  s.npages <- extend s.npages 0;
  s.ops <- extend s.ops Record.Send

let push s ~vpn ~npages ~op =
  if s.len = Array.length s.vpns then grow s;
  let i = s.len in
  s.vpns.(i) <- vpn;
  s.npages.(i) <- npages;
  s.ops.(i) <- op;
  s.len <- i + 1

let merge rng ~mirror_fraction ~mirror_npages ~protocol_pid streams =
  let position = Array.make (Array.length streams) 0 in
  let remaining = ref (Array.fold_left (fun n s -> n + s.len) 0 streams) in
  (* Each record is stamped 8-16 us after the previous one and its
     mirror 1.5 us after it, so the records come out strictly in time
     order and [Trace.of_records] has nothing to sort. *)
  let out =
    Array.make
      (if mirror_fraction > 0.0 then 2 * !remaining else !remaining)
      (Record.make ~time_us:0.0 ~pid:protocol_pid ~vpn:0 ~npages:1
         ~op:Record.Send)
  in
  let n = ref 0 in
  let time = ref 0.0 in
  while !remaining > 0 do
    (* Pick a stream index weighted by remaining records. *)
    let target = Rng.int rng !remaining in
    let i = ref 0 and below = ref (streams.(0).len - position.(0)) in
    while target >= !below do
      incr i;
      below := !below + streams.(!i).len - position.(!i)
    done;
    let i = !i in
    let s = streams.(i) and j = position.(i) in
    let vpn = s.vpns.(j) in
    position.(i) <- j + 1;
    remaining := !remaining - 1;
    time := !time +. 8.0 +. Rng.float rng 8.0;
    out.(!n) <-
      Record.make ~time_us:!time ~pid:(Pid.of_int i) ~vpn ~npages:s.npages.(j)
        ~op:s.ops.(j);
    incr n;
    if mirror_fraction > 0.0 && Rng.chance rng mirror_fraction then begin
      out.(!n) <-
        Record.make ~time_us:(!time +. 1.5) ~pid:protocol_pid
          ~vpn:(vpn - (vpn mod mirror_npages))
          ~npages:mirror_npages ~op:Record.Fetch;
      incr n
    end
  done;
  Trace.of_records (if !n = Array.length out then out else Array.sub out 0 !n)
