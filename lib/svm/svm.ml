module Cluster = Utlb_vmmc.Cluster
module Scope = Utlb_obs.Scope
module Ev = Utlb_obs.Event

let page_size = Utlb_mem.Addr.page_size

(* Virtual layout inside every SVM process (identical across nodes, as
   in a real SPMD runtime): the home segment holds master copies of the
   pages homed here; the cache region holds copies of remote pages. *)
let home_base = 0x1000000

let cache_base = 0x4000000

type node_state = {
  node : int;
  proc : Cluster.process;
  imports : Cluster.Process.import option array; (* by home node; None = self *)
  valid : (int, unit) Hashtbl.t; (* cached remote pages *)
  twins : (int, bytes) Hashtbl.t;
  dirty : (int, unit) Hashtbl.t;
}

type t = {
  cluster : Cluster.t;
  pages : int;
  nodes : node_state array;
  obs : Scope.t option;
  mutable faults : int;
  mutable diffs_sent : int;
  mutable diff_bytes : int;
  mutable twins_made : int;
  mutable forced_flushes : int;
      (* Acquires that found dirty pages and had to release first. *)
  mutable scratch_seq : int;
      (* DMA samples the source buffer at completion time, after
         [release] has queued every diff — so each diff gets its own
         scratch page to avoid clobbering in-flight sources. *)
}

type handle = { svm : t; state : node_state }

let pages t = t.pages

let home_of t ~page =
  if page < 0 || page >= t.pages then invalid_arg "Svm: page out of range";
  page mod Array.length t.nodes

let home_slot t page = page / Array.length t.nodes

let create ?obs cluster ~pages =
  if pages <= 0 then invalid_arg "Svm.create: pages must be positive";
  let n = Cluster.node_count cluster in
  (* Attach the scope to every node's NI components (bus spans, DMA
     spans) and to the shared event engine. *)
  (match obs with
  | None -> ()
  | Some scope ->
    Scope.observe_engine scope (Cluster.engine cluster) ~pid:0;
    for node = 0 to n - 1 do
      let nic = Cluster.nic cluster ~node in
      Utlb_nic.Io_bus.set_obs (Utlb_nic.Nic.bus nic) ~pid:node (Some scope);
      Utlb_nic.Dma.set_obs (Utlb_nic.Nic.dma nic) ~pid:node (Some scope)
    done);
  let procs = Array.init n (fun node -> Cluster.spawn cluster ~node) in
  let segment_len = ((pages + n - 1) / n) * page_size in
  (* Export every node's home segment, then import everywhere else. *)
  let export_info =
    Array.map
      (fun proc -> Cluster.Process.export proc ~vaddr:home_base ~len:segment_len)
      procs
  in
  let nodes =
    Array.init n (fun node ->
        let imports =
          Array.init n (fun home ->
              if home = node then None
              else
                let export_id, key = export_info.(home) in
                Some
                  (Cluster.Process.import procs.(node) ~node:home ~export_id
                     ~key))
        in
        {
          node;
          proc = procs.(node);
          imports;
          valid = Hashtbl.create 256;
          twins = Hashtbl.create 64;
          dirty = Hashtbl.create 64;
        })
  in
  Cluster.run cluster;
  {
    cluster;
    pages;
    nodes;
    obs;
    faults = 0;
    diffs_sent = 0;
    diff_bytes = 0;
    twins_made = 0;
    forced_flushes = 0;
    scratch_seq = 0;
  }

let handle t ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Svm.handle: bad node";
  { svm = t; state = t.nodes.(node) }

let node h = h.state.node

let check_range t ~page ~off ~len =
  if page < 0 || page >= t.pages then invalid_arg "Svm: page out of range";
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Svm: access must stay within one page"

let local_vaddr h page =
  let t = h.svm in
  if home_of t ~page = h.state.node then
    home_base + (home_slot t page * page_size)
  else cache_base + (page * page_size)

(* Fault a remote page into the local cache region via remote fetch. *)
let ensure_valid h page =
  let t = h.svm in
  let home = home_of t ~page in
  if home <> h.state.node && not (Hashtbl.mem h.state.valid page) then begin
    let import = Option.get h.state.imports.(home) in
    Cluster.Process.fetch h.state.proc import
      ~offset:(home_slot t page * page_size)
      ~len:page_size
      ~lvaddr:(cache_base + (page * page_size));
    Cluster.run t.cluster;
    Hashtbl.replace h.state.valid page ();
    t.faults <- t.faults + 1;
    match t.obs with
    | None -> ()
    | Some scope ->
      Scope.emit_at scope
        ~at_us:(Cluster.now_us t.cluster)
        ~pid:h.state.node ~vpn:page Ev.Fault
  end

let read h ~page ~off ~len =
  let t = h.svm in
  check_range t ~page ~off ~len;
  ensure_valid h page;
  Cluster.Process.read_memory h.state.proc
    ~vaddr:(local_vaddr h page + off)
    ~len

let write h ~page ~off data =
  let t = h.svm in
  let len = Bytes.length data in
  check_range t ~page ~off ~len;
  let home = home_of t ~page in
  if home = h.state.node then
    (* Home writes go straight to the master copy. *)
    Cluster.Process.write_memory h.state.proc
      ~vaddr:(local_vaddr h page + off)
      data
  else begin
    ensure_valid h page;
    if not (Hashtbl.mem h.state.twins page) then begin
      let twin =
        Cluster.Process.read_memory h.state.proc
          ~vaddr:(cache_base + (page * page_size))
          ~len:page_size
      in
      Hashtbl.replace h.state.twins page twin;
      t.twins_made <- t.twins_made + 1
    end;
    Cluster.Process.write_memory h.state.proc
      ~vaddr:(cache_base + (page * page_size) + off)
      data;
    Hashtbl.replace h.state.dirty page ()
  end

(* Changed ranges of [current] against [twin], at 8-byte word
   granularity (real SVM diffs are word diffs): maximal runs of
   consecutive changed words, so a page of freshly written values
   yields one run even when individual values contain unchanged
   bytes. *)
let diff_word = 8

let diff_runs ~twin ~current =
  let len = Bytes.length twin in
  let words = len / diff_word in
  let changed w =
    not
      (Int64.equal
         (Bytes.get_int64_le twin (w * diff_word))
         (Bytes.get_int64_le current (w * diff_word)))
  in
  let runs = ref [] in
  let start = ref (-1) in
  for w = 0 to words - 1 do
    if changed w && !start < 0 then start := w;
    if (not (changed w)) && !start >= 0 then begin
      runs := (!start * diff_word, (w - !start) * diff_word) :: !runs;
      start := -1
    end
  done;
  if !start >= 0 then
    runs := (!start * diff_word, (words - !start) * diff_word) :: !runs;
  (* Tail bytes beyond the last whole word, if any. *)
  let tail = len - (words * diff_word) in
  if
    tail > 0
    && not
         (Bytes.equal
            (Bytes.sub twin (words * diff_word) tail)
            (Bytes.sub current (words * diff_word) tail))
  then runs := (words * diff_word, tail) :: !runs;
  List.rev !runs

let release h =
  let t = h.svm in
  (* Drain the command ring periodically: a release with many diffs must
     not overrun the 64-slot ring before the firmware polls it. *)
  let queued = ref 0 in
  let throttle () =
    incr queued;
    if !queued mod 32 = 0 then Cluster.run t.cluster
  in
  let flush page () =
    let home = home_of t ~page in
    let import = Option.get h.state.imports.(home) in
    let twin = Hashtbl.find h.state.twins page in
    let current =
      Cluster.Process.read_memory h.state.proc
        ~vaddr:(cache_base + (page * page_size))
        ~len:page_size
    in
    List.iter
      (fun (off, len) ->
        (* Stage the changed run in a fresh scratch page and remote-store
           it into the home's master copy. *)
        let scratch = 0x8000000 + (t.scratch_seq * page_size) in
        t.scratch_seq <- t.scratch_seq + 1;
        Cluster.Process.write_memory h.state.proc ~vaddr:scratch
          (Bytes.sub current off len);
        Cluster.Process.send h.state.proc import ~lvaddr:scratch
          ~offset:((home_slot t page * page_size) + off)
          ~len;
        t.diffs_sent <- t.diffs_sent + 1;
        t.diff_bytes <- t.diff_bytes + len;
        (match t.obs with
        | None -> ()
        | Some scope ->
          Scope.emit_at scope
            ~at_us:(Cluster.now_us t.cluster)
            ~pid:h.state.node ~vpn:page ~count:len Ev.Diff);
        throttle ())
      (diff_runs ~twin ~current);
    Hashtbl.remove h.state.twins page
  in
  Hashtbl.iter flush h.state.dirty;
  Hashtbl.reset h.state.dirty;
  Cluster.run t.cluster

(* Acquiring with unreleased writes used to be a hard crash. The
   release-consistency protocol has a perfectly good answer — flush
   first — so do that, and count it so tests and tuning can tell the
   node missed a release. *)
let acquire h =
  if Hashtbl.length h.state.dirty > 0 then begin
    h.svm.forced_flushes <- h.svm.forced_flushes + 1;
    release h
  end;
  Hashtbl.reset h.state.valid

let barrier t =
  Array.iter (fun state -> release { svm = t; state }) t.nodes;
  Array.iter (fun state -> acquire { svm = t; state }) t.nodes;
  Cluster.run t.cluster

let faults t = t.faults

let diffs_sent t = t.diffs_sent

let diff_bytes t = t.diff_bytes

let twins_made t = t.twins_made

let forced_flushes t = t.forced_flushes
