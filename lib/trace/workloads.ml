module Rng = Utlb_sim.Rng
module Pid = Utlb_mem.Pid
module Page_table = Utlb_mem.Page_table

type spec = {
  name : string;
  problem_size : string;
  description : string;
  table3_footprint : int;
  table3_lookups : int;
  generate : seed:int64 -> Trace.t;
  rescale : float -> spec;
}

let app_processes = 4

let protocol_pid = Pid.of_int app_processes

(* SPMD processes have identical address-space layouts: process i's
   communication buffers live at the same virtual addresses as process
   j's. We model this by placing each process's partition at a base
   that is congruent modulo 16384 pages (the largest cache set count
   evaluated), so partitions alias pairwise at every cache size unless
   the NI applies per-process index offsetting — reproducing the
   direct vs direct-nohash behaviour of Table 8. *)
let arena_base = 65536

let layout_stride = 16384

(* The five processes' streams interleave through the shared merger;
   the protocol process mirrors application accesses at the same
   virtual pages, modelling home-based SVM diff/home traffic. *)
let assemble rng ~mirror_fraction ~mirror_npages streams =
  Interleave.merge rng ~mirror_fraction ~mirror_npages ~protocol_pid streams

let rec coprime_from n candidate =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  if gcd candidate n = 1 then candidate else coprime_from n (candidate + 1)

(* Recency-biased revisit over the pages visited so far: geometric
   depth from the most recent, with a small uniformly-random far tail. *)
let revisit rng history count ~far_prob =
  if count = 0 then invalid_arg "Workloads.revisit: empty history";
  if Rng.chance rng far_prob then history.(Rng.int rng count)
  else begin
    let depth = Rng.geometric rng ~p:0.25 in
    let depth = if depth >= count then count - 1 else depth in
    history.(count - 1 - depth)
  end

(* FFT: strided passes with a read/write pair per visit. Two passes over
   the process's partition; the stride models the transpose's scattered
   page order. *)
let fft_stream rng ~base ~pages =
  let stride = coprime_from pages 64 in
  let s = Interleave.stream (4 * pages) in
  for _pass = 0 to 1 do
    let offset = Rng.int rng pages in
    for j = 0 to pages - 1 do
      let p = base + (((j * stride) + offset) mod pages) in
      Interleave.push s ~vpn:p ~npages:1 ~op:Record.Send;
      Interleave.push s ~vpn:p ~npages:1 ~op:Record.Fetch
    done
  done;
  s

(* LU: one blocked sweep, each page touched as a read/write pair; block
   order is strided to model the column-block traversal. *)
let lu_stream rng ~base ~pages =
  let block = 16 in
  let nblocks = (pages + block - 1) / block in
  let bstride = coprime_from nblocks 9 in
  let boffset = Rng.int rng nblocks in
  let s = Interleave.stream (2 * pages) in
  for k = 0 to nblocks - 1 do
    let b = ((k * bstride) + boffset) mod nblocks in
    let lo = b * block and hi = min ((b + 1) * block) pages in
    for p = lo to hi - 1 do
      Interleave.push s ~vpn:(base + p) ~npages:1 ~op:Record.Send;
      Interleave.push s ~vpn:(base + p) ~npages:1 ~op:Record.Fetch
    done
  done;
  s

(* Barnes: most communication concentrates on a hot subset of the
   partition (boundary particles and shared tree cells) walked with
   strong locality; the remaining cold pages are swept sequentially a
   couple of times over the run. One-or-two-page buffers. *)
let barnes_stream rng ~base ~pages ~lookups =
  (* The hot subset is a contiguous cluster: boundary particles are
     neighbours in the space-filling particle order. *)
  let hot_count = max 1 (pages / 6) in
  let hot_start = Rng.int rng (max 1 (pages - hot_count)) in
  let hot = Array.init hot_count (fun i -> hot_start + i) in
  let cold =
    Array.init (pages - hot_count) (fun i ->
        if i < hot_start then i else i + hot_count)
  in
  Rng.shuffle rng cold;
  let cold_len = Array.length cold in
  let s = Interleave.stream lookups in
  let hot_pos = ref 0 in
  let cold_pos = ref 0 in
  for _ = 1 to lookups do
    let r = Rng.float rng 1.0 in
    if r < 0.90 || cold_len = 0 then begin
      (* Hot access with locality: short steps through the hot set,
         occasional jumps. *)
      let r2 = Rng.float rng 1.0 in
      if r2 < 0.70 then hot_pos := (!hot_pos + 1) mod hot_count
      else if r2 < 0.88 then () (* re-touch *)
      else hot_pos := Rng.int rng hot_count;
      let page = hot.(!hot_pos) in
      let npages = if Rng.bool rng && page < pages - 1 then 2 else 1 in
      Interleave.push s ~vpn:(base + page) ~npages ~op:Record.Send
    end
    else begin
      (* Cold sweep: sequential, each page revisited on later sweeps. *)
      let page = cold.(!cold_pos) in
      cold_pos := (!cold_pos + 1) mod cold_len;
      Interleave.push s ~vpn:(base + page) ~npages:1 ~op:Record.Send
    end
  done;
  s

(* Radix: sequential single reads of the source segment, interleaved
   with recency-biased writes into the bucket region (consecutive keys
   mostly land in the same bucket run). *)
let radix_stream rng ~base ~pages ~lookups =
  let source = pages * 5 / 8 in
  let buckets = pages - source in
  let bucket_base = base + source in
  let writes_per_read =
    float_of_int (lookups - source) /. float_of_int source
  in
  let s = Interleave.stream (max lookups source) in
  let bucket_pos = ref (Rng.int rng buckets) in
  let budget = ref 0.0 in
  for p = 0 to source - 1 do
    Interleave.push s ~vpn:(base + p) ~npages:1 ~op:Record.Fetch;
    budget := !budget +. writes_per_read;
    while !budget >= 1.0 do
      budget := !budget -. 1.0;
      let r = Rng.float rng 1.0 in
      if r < 0.70 then () (* same bucket page again *)
      else if r < 0.88 then bucket_pos := (!bucket_pos + 1) mod buckets
      else bucket_pos := Rng.int rng buckets;
      Interleave.push s ~vpn:(bucket_base + !bucket_pos) ~npages:1
        ~op:Record.Send
    done
  done;
  s

(* Task-queue applications (Raytrace, Volrend): tasks are short runs of
   contiguous pages visited once, padded with recency-biased revisits of
   earlier results. [far_prob] controls the far-revisit tail that keeps
   small caches missing. *)
let task_queue_stream rng ~base ~pages ~lookups ~far_prob =
  let s = Interleave.stream lookups in
  let history = Array.make lookups 0 in
  let visited = ref 0 in
  let emit vpn op =
    Interleave.push s ~vpn ~npages:1 ~op;
    history.(!visited) <- vpn;
    visited := !visited + 1
  in
  (* Random task (run) order over the partition. *)
  let next_new = ref 0 in
  let order = Array.init pages (fun i -> i) in
  Rng.shuffle rng order;
  let revisits_total = max 0 (lookups - pages) in
  let revisit_budget = ref 0.0 in
  let per_new = float_of_int revisits_total /. float_of_int pages in
  while !next_new < pages && !visited < lookups do
    let run_len = 2 + Rng.int rng 5 in
    let run_len = min run_len (pages - !next_new) in
    for k = 0 to run_len - 1 do
      emit (base + order.(!next_new + k)) Record.Fetch
    done;
    next_new := !next_new + run_len;
    revisit_budget := !revisit_budget +. (per_new *. float_of_int run_len);
    while !revisit_budget >= 1.0 && !visited < lookups do
      revisit_budget := !revisit_budget -. 1.0;
      let vpn = revisit rng history !visited ~far_prob in
      emit vpn Record.Send
    done
  done;
  s

(* Water: neighbour-list exchanges concentrate on a hot cluster of
   molecule rows, while periodic full passes sweep the whole partition
   with multi-page buffers (molecule rows span two to three pages). *)
let water_stream rng ~base ~pages ~lookups =
  let hot_count = max 2 (pages / 4) in
  let s = Interleave.stream lookups in
  let hot_pos = ref 0 in
  let sweep_pos = ref 0 in
  for emitted = 0 to lookups - 1 do
    let npages = if emitted mod 4 = 3 then 3 else 2 in
    if Rng.chance rng 0.65 then begin
      (* Hot neighbour-list touch with locality. *)
      let r = Rng.float rng 1.0 in
      if r < 0.75 then hot_pos := (!hot_pos + npages) mod hot_count
      else if r < 0.90 then ()
      else hot_pos := Rng.int rng hot_count;
      let p = !hot_pos in
      let npages = max 1 (min npages (hot_count - p)) in
      Interleave.push s ~vpn:(base + p) ~npages ~op:Record.Send
    end
    else begin
      (* Full-pass sweep over the partition. *)
      let p = !sweep_pos in
      let npages = max 1 (min npages (pages - p)) in
      Interleave.push s ~vpn:(base + p) ~npages ~op:Record.Send;
      sweep_pos := (!sweep_pos + npages) mod pages
    end
  done;
  s

let partition ~footprint pid =
  (arena_base + (pid * layout_stride), footprint / app_processes)

(* The footprint and lookup count at [factor] times their size, never
   below one page or lookup per application process. A NaN factor, or
   one that scales either count past an int (infinity included), means
   nothing: [int_of_float] of such a product is unspecified. Nor can
   the last process's partition run past the page table: the
   generators size their streams by it. *)
let scale_counts ~footprint ~lookups factor =
  if not (factor > 0.0) then
    invalid_arg "Workloads.scaled: factor must be positive";
  let too_large () = invalid_arg "Workloads.scaled: factor too large" in
  let scale n =
    let scaled = float_of_int n *. factor in
    if not (scaled < Float.of_int max_int) then too_large ();
    max app_processes (int_of_float scaled)
  in
  let footprint = scale footprint and lookups = scale lookups in
  let base, pages = partition ~footprint (app_processes - 1) in
  if base + pages - 1 > Page_table.max_vpn then too_large ();
  (footprint, lookups)

let make_spec ~name ~problem_size ~description ~footprint ~lookups
    ~mirror_fraction ~mirror_npages ~stream =
  let rec build footprint lookups =
    {
      name;
      problem_size;
      description;
      table3_footprint = footprint;
      table3_lookups = lookups;
      generate =
        (fun ~seed ->
          let rng = Rng.create ~seed in
          let streams =
            Array.init app_processes (fun pid ->
                let base, pages = partition ~footprint pid in
                stream (Rng.split rng) ~base ~pages
                  ~lookups:(lookups / app_processes))
          in
          assemble rng ~mirror_fraction ~mirror_npages streams);
      rescale =
        (fun factor ->
          let footprint, lookups = scale_counts ~footprint ~lookups factor in
          build footprint lookups);
    }
  in
  build footprint lookups

let fft =
  make_spec ~name:"fft" ~problem_size:"4M elements"
    ~description:"parallel 2D FFT: strided transpose passes, paired touches"
    ~footprint:10803 ~lookups:43132 ~mirror_fraction:0.05 ~mirror_npages:2
    ~stream:(fun rng ~base ~pages ~lookups:_ -> fft_stream rng ~base ~pages)

let lu =
  make_spec ~name:"lu" ~problem_size:"4K x 4K matrix"
    ~description:"blocked LU decomposition: one paired sweep, blocked order"
    ~footprint:12507 ~lookups:25198 ~mirror_fraction:0.05 ~mirror_npages:2
    ~stream:(fun rng ~base ~pages ~lookups:_ -> lu_stream rng ~base ~pages)

let barnes =
  make_spec ~name:"barnes" ~problem_size:"32K particles"
    ~description:"Barnes-Hut N-body: locality walk over particle partition"
    ~footprint:2235 ~lookups:35904 ~mirror_fraction:0.04 ~mirror_npages:1
    ~stream:(fun rng ~base ~pages ~lookups -> barnes_stream rng ~base ~pages ~lookups)

let radix =
  make_spec ~name:"radix" ~problem_size:"4M keys"
    ~description:"radix sort: sequential key reads, recency-biased bucket writes"
    ~footprint:6393 ~lookups:11775 ~mirror_fraction:0.04 ~mirror_npages:2
    ~stream:(fun rng ~base ~pages ~lookups -> radix_stream rng ~base ~pages ~lookups)

let raytrace =
  make_spec ~name:"raytrace" ~problem_size:"256 x 256 car"
    ~description:"task-farm raytracer: task runs plus recency revisits"
    ~footprint:6319 ~lookups:14594 ~mirror_fraction:0.06 ~mirror_npages:2
    ~stream:(fun rng ~base ~pages ~lookups ->
      task_queue_stream rng ~base ~pages ~lookups ~far_prob:0.12)

let volrend =
  make_spec ~name:"volrend" ~problem_size:"256^3 CST head"
    ~description:"task-farm volume renderer: task runs plus recency revisits"
    ~footprint:2371 ~lookups:9438 ~mirror_fraction:0.08 ~mirror_npages:2
    ~stream:(fun rng ~base ~pages ~lookups ->
      task_queue_stream rng ~base ~pages ~lookups ~far_prob:0.10)

let water =
  make_spec ~name:"water" ~problem_size:"15,625 molecules"
    ~description:"spatial water: cyclic multi-page passes over molecules"
    ~footprint:1890 ~lookups:8488 ~mirror_fraction:0.08 ~mirror_npages:2
    ~stream:(fun rng ~base ~pages ~lookups -> water_stream rng ~base ~pages ~lookups)

let all = [ fft; lu; barnes; radix; raytrace; volrend; water ]

(* ------------------------------------------------------------------ *)
(* Multi-tenant interference family                                    *)

(* The victim: a latency-critical process cycling a small hot working
   set with strong locality — the whole set fits in any evaluated NI
   cache, so left alone it barely misses. *)
let victim_stream rng ~base ~pages ~lookups =
  let pos = ref 0 in
  let s = Interleave.stream lookups in
  for _ = 1 to lookups do
    let r = Rng.float rng 1.0 in
    if r < 0.80 then pos := (!pos + 1) mod pages
    else if r < 0.95 then () (* re-touch *)
    else pos := Rng.int rng pages;
    Interleave.push s ~vpn:(base + !pos) ~npages:1 ~op:Record.Send
  done;
  s

(* An aggressor: a pure streaming sweep over a footprint far larger
   than the NI cache — every access a compulsory-or-capacity miss,
   every fill an eviction of someone else's line. *)
let aggressor_stream _rng ~base ~pages ~lookups =
  let s = Interleave.stream lookups in
  for i = 0 to lookups - 1 do
    Interleave.push s ~vpn:(base + (i mod pages)) ~npages:1 ~op:Record.Send
  done;
  s

let rec interference_build footprint lookups =
  {
    name = "interference";
    problem_size = "1 victim + 3 aggressors";
    description =
      "cross-tenant interference: hot-set victim vs cache-thrashing \
       aggressors";
    table3_footprint = footprint;
    table3_lookups = lookups;
    generate =
      (fun ~seed ->
        let rng = Rng.create ~seed in
        let victim_pages = max 16 (footprint / 192) in
        let aggressor_pages =
          min (layout_stride - 1) (max 64 ((footprint - victim_pages) / 3))
        in
        let per_stream = lookups / app_processes in
        let streams =
          Array.init app_processes (fun pid ->
              let base = arena_base + (pid * layout_stride) in
              let r = Rng.split rng in
              if pid = 0 then
                victim_stream r ~base ~pages:victim_pages ~lookups:per_stream
              else
                aggressor_stream r ~base ~pages:aggressor_pages
                  ~lookups:per_stream)
        in
        (* No protocol mirroring: the interference signal should come
           from the four application tenancies alone. *)
        assemble rng ~mirror_fraction:0.0 ~mirror_npages:1 streams);
    rescale =
      (fun factor ->
        let footprint, lookups = scale_counts ~footprint ~lookups factor in
        interference_build footprint lookups);
  }

let interference = interference_build 18600 44000

(* Kept out of [all] so the paper-table campaigns, bench rows, and
   CLI listings built on it are untouched; [find] still resolves it. *)
let extras = [ interference ]

let scaled spec ~factor = spec.rescale factor

(* Renumber a trace's pids into [base ..] so several applications'
   process sets stay disjoint on one node. *)
let shift_pids trace ~base =
  let records =
    Array.map
      (fun (r : Record.t) ->
        { r with Record.pid = Pid.of_int (base + Pid.to_int r.Record.pid) })
      (Trace.records trace)
  in
  Trace.of_records records

let rec multiprogram specs =
  match specs with
  | [] -> invalid_arg "Workloads.multiprogram: empty list"
  | _ :: _ ->
    let name = String.concat "+" (List.map (fun s -> s.name) specs) in
    {
      name;
      problem_size = "mixed";
      description = "independent applications timesharing one node";
      table3_footprint =
        List.fold_left (fun n s -> n + s.table3_footprint) 0 specs;
      table3_lookups =
        List.fold_left (fun n s -> n + s.table3_lookups) 0 specs;
      generate =
        (fun ~seed ->
          let parts =
            List.mapi
              (fun i spec ->
                let component =
                  spec.generate ~seed:(Int64.add seed (Int64.of_int (i * 7919)))
                in
                shift_pids component ~base:(i * (app_processes + 1)))
              specs
          in
          Trace.merge parts);
      rescale =
        (fun factor ->
          multiprogram (List.map (fun s -> s.rescale factor) specs));
    }

let find name =
  let lower = String.lowercase_ascii name in
  List.find_opt (fun s -> String.equal s.name lower) (all @ extras)

let custom ~name ?(problem_size = "custom") ?(description = "") ~generate () =
  {
    name;
    problem_size;
    description;
    table3_footprint = 0;
    table3_lookups = 0;
    generate;
    rescale =
      (fun _ -> invalid_arg "Workloads.scaled: custom workloads do not rescale");
  }
