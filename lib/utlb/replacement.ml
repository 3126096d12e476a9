module Rng = Utlb_sim.Rng

type policy = Lru | Mru | Lfu | Mfu | Random

let policy_name = function
  | Lru -> "lru"
  | Mru -> "mru"
  | Lfu -> "lfu"
  | Mfu -> "mfu"
  | Random -> "random"

let all_policies = [ Lru; Mru; Lfu; Mfu; Random ]

let policy_of_string s =
  let lower = String.lowercase_ascii s in
  List.find_opt (fun p -> String.equal (policy_name p) lower) all_policies

(* Heap entries are (score1, score2, page) snapshots kept in three
   parallel int arrays; stale snapshots (score no longer current, or
   page no longer tracked) are discarded lazily at pop time. Snapshot
   keys are unique — the tick is monotonic, so no two pushes carry the
   same (score, page) — which makes the pop order independent of heap
   internals. Once stale entries make up half the heap it is rebuilt
   from the tracked pages' current snapshots, so its size stays within
   twice the tracked set. Insert/touch/select stay O(log n) amortised
   with no allocation. *)
type t = {
  policy : policy;
  rng : Rng.t;
  (* page -> (v0 = last_use, v1 = uses) *)
  pages : Flat_map.t;
  mutable hs1 : int array;
  mutable hs2 : int array;
  mutable hpage : int array;
  mutable hlen : int;
  (* Random policy: dense array of pages with O(1) swap-remove. *)
  mutable dense : int array;
  mutable dense_len : int;
  (* page -> (v0 = dense index, v1 unused) *)
  slot : Flat_map.t;
  mutable tick : int;
}

let score1 policy ~last_use ~uses =
  match policy with
  | Lru -> last_use
  | Mru -> -last_use
  | Lfu -> uses
  | Mfu -> -uses
  | Random -> 0

let score2 policy ~last_use =
  match policy with
  | Lru | Mru | Random -> 0
  | Lfu | Mfu -> last_use

let create policy ~rng =
  {
    policy;
    rng;
    pages = Flat_map.create ();
    hs1 = Array.make 64 0;
    hs2 = Array.make 64 0;
    hpage = Array.make 64 0;
    hlen = 0;
    dense = Array.make 16 0;
    dense_len = 0;
    slot = Flat_map.create ();
    tick = 0;
  }

let policy t = t.policy

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* Lexicographic (s1, s2, page) min-heap on the parallel arrays. *)
let heap_less t i j =
  t.hs1.(i) < t.hs1.(j)
  || (t.hs1.(i) = t.hs1.(j)
     && (t.hs2.(i) < t.hs2.(j)
        || (t.hs2.(i) = t.hs2.(j) && t.hpage.(i) < t.hpage.(j))))

let heap_swap t i j =
  let s1 = t.hs1.(i) and s2 = t.hs2.(i) and p = t.hpage.(i) in
  t.hs1.(i) <- t.hs1.(j);
  t.hs2.(i) <- t.hs2.(j);
  t.hpage.(i) <- t.hpage.(j);
  t.hs1.(j) <- s1;
  t.hs2.(j) <- s2;
  t.hpage.(j) <- p

let heap_push t ~s1 ~s2 ~page =
  if t.hlen = Array.length t.hs1 then begin
    let cap = 2 * t.hlen in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 t.hlen;
      b
    in
    t.hs1 <- grow t.hs1;
    t.hs2 <- grow t.hs2;
    t.hpage <- grow t.hpage
  end;
  let i = ref t.hlen in
  t.hs1.(!i) <- s1;
  t.hs2.(!i) <- s2;
  t.hpage.(!i) <- page;
  t.hlen <- t.hlen + 1;
  while !i > 0 && heap_less t !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    heap_swap t !i parent;
    i := parent
  done

let sift_down t i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.hlen && heap_less t l !smallest then smallest := l;
    if r < t.hlen && heap_less t r !smallest then smallest := r;
    if !smallest = !i then continue := false
    else begin
      heap_swap t !i !smallest;
      i := !smallest
    end
  done

(* Drop the minimum; the caller read it from slot 0 first. *)
let heap_drop_min t =
  t.hlen <- t.hlen - 1;
  if t.hlen > 0 then begin
    t.hs1.(0) <- t.hs1.(t.hlen);
    t.hs2.(0) <- t.hs2.(t.hlen);
    t.hpage.(0) <- t.hpage.(t.hlen);
    sift_down t 0
  end

(* Replace the heap by one current snapshot per tracked page. Stale
   entries are only ever skipped at pop time and keys are unique, so
   every pop sequence, and so every victim, stays the same. *)
let rebuild t =
  t.hlen <- 0;
  for slot = 0 to Flat_map.slots t.pages - 1 do
    let page = Flat_map.key_at t.pages slot in
    if page >= 0 then begin
      let last_use = Flat_map.value0 t.pages slot in
      let uses = Flat_map.value1 t.pages slot in
      let i = t.hlen in
      t.hs1.(i) <- score1 t.policy ~last_use ~uses;
      t.hs2.(i) <- score2 t.policy ~last_use;
      t.hpage.(i) <- page;
      t.hlen <- i + 1
    end
  done;
  for i = (t.hlen / 2) - 1 downto 0 do
    sift_down t i
  done

(* Called after [page]'s entry in [t.pages] took its new values, so a
   rebuild already holds the new snapshot and replaces the push. *)
let push_snapshot t page ~last_use ~uses =
  if t.policy <> Random then
    if t.hlen >= 64 && t.hlen >= 2 * Flat_map.length t.pages then rebuild t
    else
      heap_push t
        ~s1:(score1 t.policy ~last_use ~uses)
        ~s2:(score2 t.policy ~last_use)
        ~page

let dense_add t page =
  if t.dense_len = Array.length t.dense then begin
    let bigger = Array.make (2 * t.dense_len) 0 in
    Array.blit t.dense 0 bigger 0 t.dense_len;
    t.dense <- bigger
  end;
  t.dense.(t.dense_len) <- page;
  ignore (Flat_map.add t.slot page ~v0:t.dense_len ~v1:0);
  t.dense_len <- t.dense_len + 1

let dense_remove t page =
  let s = Flat_map.find t.slot page in
  if s >= 0 then begin
    let i = Flat_map.value0 t.slot s in
    let last = t.dense_len - 1 in
    let moved = t.dense.(last) in
    t.dense.(i) <- moved;
    let ms = Flat_map.find t.slot moved in
    Flat_map.set_value0 t.slot ms i;
    t.dense_len <- last;
    Flat_map.remove t.slot page
  end

let insert t page =
  if Flat_map.mem t.pages page then
    invalid_arg "Replacement.insert: page already tracked";
  let last_use = next_tick t in
  ignore (Flat_map.add t.pages page ~v0:last_use ~v1:1);
  if t.policy = Random then dense_add t page
  else push_snapshot t page ~last_use ~uses:1

let touch t page =
  let s = Flat_map.find t.pages page in
  if s >= 0 then begin
    let last_use = next_tick t in
    let uses = Flat_map.value1 t.pages s + 1 in
    Flat_map.set_value0 t.pages s last_use;
    Flat_map.set_value1 t.pages s uses;
    push_snapshot t page ~last_use ~uses
  end

let remove t page =
  if Flat_map.mem t.pages page then begin
    Flat_map.remove t.pages page;
    if t.policy = Random then dense_remove t page
  end

let mem t page = Flat_map.mem t.pages page

let size t = Flat_map.length t.pages

(* Victim selection never picks a page of the in-flight span [lo, hi)
   nor one [protect] accepts; -1 when every tracked page is excluded. *)
let excluded ~lo ~hi protect page = (page >= lo && page < hi) || protect page

let select_random t ~lo ~hi protect =
  (* Rejection-sample protected pages; fall back to a full scan when the
     sample keeps hitting protected entries (tiny unprotected sets). *)
  let victim = ref (-1) in
  if t.dense_len > 0 then begin
    let attempts = ref 8 in
    while !victim < 0 && !attempts > 0 do
      let candidate = t.dense.(Rng.int t.rng t.dense_len) in
      if not (excluded ~lo ~hi protect candidate) then victim := candidate;
      decr attempts
    done;
    (* Deterministic fallback: first unprotected page in the dense
       array. *)
    let i = ref 0 in
    while !victim < 0 && !i < t.dense_len do
      let page = t.dense.(!i) in
      if not (excluded ~lo ~hi protect page) then victim := page;
      incr i
    done;
    if !victim >= 0 then begin
      Flat_map.remove t.pages !victim;
      dense_remove t !victim
    end
  end;
  !victim

let rec push_back t = function
  | [] -> ()
  | (s1, s2, page) :: rest ->
    heap_push t ~s1 ~s2 ~page;
    push_back t rest

let select_scored t ~lo ~hi protect =
  (* Pop snapshots until a current, unprotected one appears. Protected
     current snapshots are set aside and pushed back afterwards. *)
  let stash = ref [] in
  let victim = ref (-1) in
  while !victim < 0 && t.hlen > 0 do
    let s1 = t.hs1.(0) and s2 = t.hs2.(0) and page = t.hpage.(0) in
    heap_drop_min t;
    let slot = Flat_map.find t.pages page in
    (* Skip pages no longer tracked and stale snapshots. *)
    if slot >= 0 then begin
      let last_use = Flat_map.value0 t.pages slot in
      let uses = Flat_map.value1 t.pages slot in
      if
        score1 t.policy ~last_use ~uses = s1
        && score2 t.policy ~last_use = s2
      then
        if excluded ~lo ~hi protect page then stash := (s1, s2, page) :: !stash
        else begin
          Flat_map.remove t.pages page;
          victim := page
        end
    end
  done;
  push_back t !stash;
  !victim

let select t ~lo ~hi protect =
  match t.policy with
  | Random -> select_random t ~lo ~hi protect
  | Lru | Mru | Lfu | Mfu -> select_scored t ~lo ~hi protect

let never _ = false

let select_outside t ~vpn ~npages = select t ~lo:vpn ~hi:(vpn + npages) never

let select_victim t ?(protect = never) () =
  let victim = select t ~lo:0 ~hi:0 protect in
  if victim < 0 then None else Some victim
