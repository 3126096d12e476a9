module Pid = Utlb_mem.Pid

type associativity = Direct_nohash | Direct | Two_way | Four_way

let ways = function
  | Direct_nohash | Direct -> 1
  | Two_way -> 2
  | Four_way -> 4

let associativity_name = function
  | Direct_nohash -> "direct-nohash"
  | Direct -> "direct"
  | Two_way -> "2-way"
  | Four_way -> "4-way"

let all = [ Direct_nohash; Direct; Two_way; Four_way ]

let associativity_of_string s =
  let lower = String.lowercase_ascii s in
  List.find_opt (fun a -> String.equal (associativity_name a) lower) all

type config = { entries : int; associativity : associativity }

(* Parallel arrays, one slot per line; pid < 0 marks an invalid line.
   Keeping the four fields in separate int arrays (instead of a record
   per line) makes a set probe a handful of unboxed array reads over
   adjacent slots. *)
type t = {
  config : config;
  sets : int;
  nways : int;
  pids : int array;
  vpns : int array;
  frames : int array;
  stamps : int array; (* per-set LRU *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable valid : int;
  mutable probes : int;
  (* The line the last evicting [insert] displaced, read through
     [evicted_*]: per cache, so engines on other domains never share
     it. *)
  mutable evicted_pid : int;
  mutable evicted_vpn : int;
  mutable evicted_frame : int;
  (* Per-process tenant windows (multi-tenant partitioning):
     index = win_base.(pid) + ((hash + win_offset.(pid)) land
     win_mask.(pid)). [windowed] stays false until the first
     [set_window], so an unpartitioned cache pays one predictable
     branch and keeps the exact historical index function. *)
  mutable windowed : bool;
  mutable win_base : int array;
  mutable win_mask : int array;
  mutable win_offset : int array;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create config =
  let nways = ways config.associativity in
  if config.entries <= 0 || config.entries mod nways <> 0 then
    invalid_arg "Ni_cache.create: entries must be a positive multiple of ways";
  let sets = config.entries / nways in
  if not (is_power_of_two sets) then
    invalid_arg "Ni_cache.create: set count must be a power of two";
  {
    config;
    sets;
    nways;
    pids = Array.make config.entries (-1);
    vpns = Array.make config.entries (-1);
    frames = Array.make config.entries (-1);
    stamps = Array.make config.entries 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    valid = 0;
    probes = 0;
    evicted_pid = -1;
    evicted_vpn = -1;
    evicted_frame = -1;
    windowed = false;
    win_base = [||];
    win_mask = [||];
    win_offset = [||];
  }

let config t = t.config

let sets t = t.sets

(* Per-process index offsetting: "offset a translation table index by a
   process-dependent constant" so identical virtual pages from
   different processes hash to different sets. SPMD processes have
   identical address-space layouts, so without the offset their buffers
   alias pairwise at every power-of-two set count. The multiplier 6553
   spreads up to five concurrent processes with gaps of at least 1/5th
   of the index space for set counts from 1 K to 16 K. *)
let offset_multiplier = 6553

(* The one index function, shared by the live cache and the static
   accessors so a config-level prediction provably matches what a
   built cache does. *)
let index_of ~associativity ~sets ~pid ~vpn =
  let base =
    match associativity with
    | Direct_nohash -> vpn
    | Direct | Two_way | Four_way -> vpn + (pid * offset_multiplier)
  in
  base land (sets - 1)

let sets_of_config config =
  let nways = ways config.associativity in
  if config.entries <= 0 || config.entries mod nways <> 0 then None
  else
    let sets = config.entries / nways in
    if is_power_of_two sets then Some sets else None

let static_set_index config ~pid ~vpn =
  Option.map
    (fun sets ->
      index_of ~associativity:config.associativity ~sets ~pid ~vpn)
    (sets_of_config config)

let set_index t ~pid ~vpn =
  let p = Pid.to_int pid in
  let h = index_of ~associativity:t.config.associativity ~sets:t.sets ~pid:p ~vpn in
  if (not t.windowed) || p >= Array.length t.win_base then h
  else t.win_base.(p) + ((h + t.win_offset.(p)) land t.win_mask.(p))

let grow t pid =
  let n = Array.length t.win_base in
  if pid >= n then begin
    let size = pid + 1 in
    let extend a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.win_base <- extend t.win_base 0;
    t.win_mask <- extend t.win_mask (t.sets - 1);
    t.win_offset <- extend t.win_offset 0
  end

let set_window t ~pid ~base ~mask ~offset =
  let p = Pid.to_int pid in
  if not (is_power_of_two (mask + 1)) then
    invalid_arg "Ni_cache.set_window: mask+1 must be a power of two";
  if base < 0 || base + mask >= t.sets then
    invalid_arg "Ni_cache.set_window: window exceeds the set count";
  grow t p;
  t.win_base.(p) <- base;
  t.win_mask.(p) <- mask;
  t.win_offset.(p) <- offset;
  t.windowed <- true

let set_slice t idx = idx * t.nways

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* The one slot finder: slot of (pid, vpn) in its set, or -1. *)
let find_slot t ~pid ~vpn =
  let p = Pid.to_int pid in
  let base = set_slice t (set_index t ~pid ~vpn) in
  let slot = ref (-1) in
  let w = ref 0 in
  while !slot < 0 && !w < t.nways do
    let i = base + !w in
    if t.pids.(i) = p && t.vpns.(i) = vpn then slot := i else incr w
  done;
  !slot

let lookup t ~pid ~vpn =
  let slot = find_slot t ~pid ~vpn in
  if slot >= 0 then begin
    (* A hit probed the ways up to its own (sets start at multiples of
       the power-of-two way count); a miss probed them all. *)
    t.probes <- t.probes + (slot land (t.nways - 1)) + 1;
    t.hits <- t.hits + 1;
    t.stamps.(slot) <- next_tick t;
    t.frames.(slot)
  end
  else begin
    t.probes <- t.probes + t.nways;
    t.misses <- t.misses + 1;
    -1
  end

let contains t ~pid ~vpn = find_slot t ~pid ~vpn >= 0

let peek t ~pid ~vpn =
  let slot = find_slot t ~pid ~vpn in
  if slot < 0 then -1 else t.frames.(slot)

let iter_valid t f =
  for i = 0 to t.config.entries - 1 do
    if t.pids.(i) >= 0 then
      f ~pid:(Pid.of_int t.pids.(i)) ~vpn:t.vpns.(i) ~frame:t.frames.(i)
  done

let insert t ~pid ~vpn ~frame =
  let p = Pid.to_int pid in
  let base = set_slice t (set_index t ~pid ~vpn) in
  (* Refresh in place if present. *)
  let existing = ref (-1) in
  let free = ref (-1) in
  let lru = ref base in
  for w = 0 to t.nways - 1 do
    let i = base + w in
    if t.pids.(i) = p && t.vpns.(i) = vpn then existing := i;
    if t.pids.(i) < 0 && !free < 0 then free := i;
    if t.stamps.(i) < t.stamps.(!lru) then lru := i
  done;
  if !existing >= 0 then begin
    t.frames.(!existing) <- frame;
    t.stamps.(!existing) <- next_tick t;
    false
  end
  else begin
    let evicts = !free < 0 in
    let slot = if evicts then !lru else !free in
    if evicts then begin
      t.evictions <- t.evictions + 1;
      t.evicted_pid <- t.pids.(slot);
      t.evicted_vpn <- t.vpns.(slot);
      t.evicted_frame <- t.frames.(slot)
    end
    else t.valid <- t.valid + 1;
    t.pids.(slot) <- p;
    t.vpns.(slot) <- vpn;
    t.frames.(slot) <- frame;
    t.stamps.(slot) <- next_tick t;
    evicts
  end

let evicted_pid t = Pid.of_int t.evicted_pid

let evicted_vpn t = t.evicted_vpn

let evicted_frame t = t.evicted_frame

let clear_slot t i =
  t.pids.(i) <- -1;
  t.vpns.(i) <- -1;
  t.frames.(i) <- -1;
  t.stamps.(i) <- 0

let invalidate t ~pid ~vpn =
  let slot = find_slot t ~pid ~vpn in
  if slot < 0 then false
  else begin
    clear_slot t slot;
    t.valid <- t.valid - 1;
    true
  end

let invalidate_process t ~pid =
  let p = Pid.to_int pid in
  let dropped = ref 0 in
  for i = 0 to t.config.entries - 1 do
    if t.pids.(i) = p then begin
      clear_slot t i;
      incr dropped
    end
  done;
  t.valid <- t.valid - !dropped;
  !dropped

let valid_lines t = t.valid

let hits t = t.hits

let misses t = t.misses

let evictions t = t.evictions

let probe_cost_entries t = t.probes

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.probes <- 0

let size_bytes t = t.config.entries * 4
