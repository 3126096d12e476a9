module Pid = Utlb_mem.Pid

type kind = Compulsory | Capacity | Conflict

let kind_name = function
  | Compulsory -> "compulsory"
  | Capacity -> "capacity"
  | Conflict -> "conflict"

(* Shadow fully-associative LRU cache on flat storage: nodes live in a
   fixed pool of parallel int arrays (capacity + 1 slots, the last one
   the recency-list sentinel) linked by index, with an open-addressed
   map from packed (pid, vpn) keys to pool slots. Touch/insert/evict
   stay O(1) and the whole structure allocates nothing after create. *)
type t = {
  capacity : int;
  sentinel : int;
  kpid : int array;
  kvpn : int array;
  prev : int array;
  next : int array;
  free : int array;
  mutable free_len : int;
  (* packed key -> (v0 = pool slot, v1 unused) *)
  table : Flat_map.t;
  mutable size : int;
  seen : Flat_map.t;
  mutable compulsory : int;
  mutable capacity_misses : int;
  mutable conflict : int;
}

(* Packed map key; vpns are bounded by the 20-bit paper address space,
   so a 32-bit field leaves lots of slack. *)
let pack ~pid ~vpn = (pid lsl 32) lor vpn

let create ~capacity =
  if capacity <= 0 then
    invalid_arg "Miss_classifier.create: capacity must be positive";
  let sentinel = capacity in
  {
    capacity;
    sentinel;
    kpid = Array.make (capacity + 1) (-1);
    kvpn = Array.make (capacity + 1) (-1);
    prev = Array.make (capacity + 1) sentinel;
    next = Array.make (capacity + 1) sentinel;
    free = Array.init capacity (fun i -> capacity - 1 - i);
    free_len = capacity;
    table = Flat_map.create ();
    size = 0;
    seen = Flat_map.create ();
    compulsory = 0;
    capacity_misses = 0;
    conflict = 0;
  }

let unlink t n =
  t.next.(t.prev.(n)) <- t.next.(n);
  t.prev.(t.next.(n)) <- t.prev.(n)

let push_front t n =
  t.next.(n) <- t.next.(t.sentinel);
  t.prev.(n) <- t.sentinel;
  t.prev.(t.next.(t.sentinel)) <- n;
  t.next.(t.sentinel) <- n

(* Move the shadow node in [slot] of the table to the MRU end. *)
let shadow_touch t slot =
  let n = Flat_map.value0 t.table slot in
  unlink t n;
  push_front t n

(* Insert [key], which the caller found absent from the shadow table. *)
let shadow_insert t key ~pid ~vpn =
  if t.size >= t.capacity then begin
    (* Evict the LRU tail. *)
    let tail = t.prev.(t.sentinel) in
    unlink t tail;
    Flat_map.remove t.table (pack ~pid:t.kpid.(tail) ~vpn:t.kvpn.(tail));
    t.free.(t.free_len) <- tail;
    t.free_len <- t.free_len + 1;
    t.size <- t.size - 1
  end;
  t.free_len <- t.free_len - 1;
  let n = t.free.(t.free_len) in
  t.kpid.(n) <- pid;
  t.kvpn.(n) <- vpn;
  ignore (Flat_map.add t.table key ~v0:n ~v1:0);
  push_front t n;
  t.size <- t.size + 1

(* Every page in the shadow is in [seen]: only [note_hit] and
   [classify] insert into the shadow, and both record the page as
   seen. So one probe of the shadow table decides a shadow hit, which
   needs nothing else; a shadow miss adds the page to [seen] (one
   probe, which says whether it was new) and to the shadow. *)
let note_hit t ~pid ~vpn =
  let pid = Pid.to_int pid in
  let key = pack ~pid ~vpn in
  let slot = Flat_map.find t.table key in
  if slot >= 0 then shadow_touch t slot
  else begin
    ignore (Flat_map.add t.seen key ~v0:0 ~v1:0);
    shadow_insert t key ~pid ~vpn
  end

let classify t ~pid ~vpn =
  let pid = Pid.to_int pid in
  let key = pack ~pid ~vpn in
  let slot = Flat_map.find t.table key in
  if slot >= 0 then begin
    shadow_touch t slot;
    t.conflict <- t.conflict + 1;
    Conflict
  end
  else begin
    let known = Flat_map.length t.seen in
    ignore (Flat_map.add t.seen key ~v0:0 ~v1:0);
    shadow_insert t key ~pid ~vpn;
    if Flat_map.length t.seen > known then begin
      t.compulsory <- t.compulsory + 1;
      Compulsory
    end
    else begin
      t.capacity_misses <- t.capacity_misses + 1;
      Capacity
    end
  end

let note_invalidate t ~pid ~vpn =
  let pid = Pid.to_int pid in
  let key = pack ~pid ~vpn in
  let slot = Flat_map.find t.table key in
  if slot >= 0 then begin
    let n = Flat_map.value0 t.table slot in
    unlink t n;
    Flat_map.remove t.table key;
    t.free.(t.free_len) <- n;
    t.free_len <- t.free_len + 1;
    t.size <- t.size - 1
  end

let self_check t =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if t.size > t.capacity then
    note "shadow cache holds %d entries, capacity is %d" t.size t.capacity;
  if Flat_map.length t.table <> t.size then
    note "shadow table has %d entries but size counter says %d"
      (Flat_map.length t.table) t.size;
  (* Walk the recency list and cross-check against the table: every
     node must be reachable, keyed, and doubly linked. *)
  let forward = ref 0 in
  let n = ref t.next.(t.sentinel) in
  while !n <> t.sentinel && !forward <= t.size do
    incr forward;
    let node = !n in
    if t.prev.(t.next.(node)) <> node || t.next.(t.prev.(node)) <> node then
      note "shadow list node (%d,%d) has broken links" t.kpid.(node)
        t.kvpn.(node);
    let key = pack ~pid:t.kpid.(node) ~vpn:t.kvpn.(node) in
    (match Flat_map.find t.table key with
    | slot when slot < 0 ->
      note "shadow list node (%d,%d) missing from table" t.kpid.(node)
        t.kvpn.(node)
    | slot ->
      if Flat_map.value0 t.table slot <> node then
        note "shadow list node (%d,%d) shadowed by another node" t.kpid.(node)
          t.kvpn.(node));
    n := t.next.(node)
  done;
  if !forward <> t.size then
    note "shadow list length %d disagrees with size counter %d" !forward
      t.size;
  List.rev !problems

(* Deliberately desynchronise the shadow structures — only for testing
   that the sanitizer detects divergence. Removes the most recent
   node's table entry without unlinking it. *)
let corrupt_for_testing t =
  let head = t.next.(t.sentinel) in
  if head <> t.sentinel then
    Flat_map.remove t.table (pack ~pid:t.kpid.(head) ~vpn:t.kvpn.(head))

let compulsory t = t.compulsory

let capacity_misses t = t.capacity_misses

let conflict t = t.conflict
