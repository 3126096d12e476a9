module Stats = Utlb_sim.Stats
module Engine = Utlb_sim.Engine
module Time = Utlb_sim.Time

(* Pre-resolved collectors for the standard metric schema, so the hot
   emit path never hashes a metric name. Building the cache registers
   the full schema up front: snapshots of runs that never hit a code
   path still carry its (zero) metrics, which keeps campaign snapshot
   merges structurally identical across cells. *)
type metric_cache = {
  registry : Metrics.t;
  kind_counters : Stats.Counter.t array;
  volume_counters : Stats.Counter.t option array;
  lookup_h : Stats.Histogram.t;
  miss_h : Stats.Histogram.t;
}

let kind_metric_name kind =
  Event.component_name (Event.component_of_kind kind) ^ "/"
  ^ Event.kind_name kind

let volume_metric_name = function
  | Event.Pin -> Some "host/pages_pinned"
  | Event.Unpin -> Some "host/pages_unpinned"
  | Event.Pre_pin -> Some "host/pages_prepinned"
  | Event.Fetch -> Some "ni/entries_fetched"
  | Event.Dma_data_start -> Some "dma/bytes"
  | Event.Diff -> Some "svm/diff_bytes"
  | _ -> None

let build_cache registry =
  (* Fault-plane kinds are counted but never registered: the standard
     schema (and every golden snapshot of it) keeps its shape whether
     or not a fault plan is active. Their counts surface through the
     scope's own per-kind arrays and the trace sink instead. *)
  let kind_counters =
    Array.of_list
      (List.map
         (fun kind ->
           if Event.is_fault_kind kind then
             Stats.Counter.create (kind_metric_name kind)
           else Metrics.counter registry (kind_metric_name kind))
         Event.all_kinds)
  in
  let volume_counters =
    Array.of_list
      (List.map
         (fun kind ->
           Option.map
             (fun name -> Metrics.counter registry name)
             (volume_metric_name kind))
         Event.all_kinds)
  in
  (* Registered so the schema keeps its shape; nothing observes into it
     since no component emits a DMA entry fetch. *)
  ignore (Metrics.histogram registry "dma/fetch_us" ~bucket_width:2.0 ~buckets:50);
  {
    registry;
    kind_counters;
    volume_counters;
    lookup_h =
      Metrics.histogram registry "host/lookup_us" ~bucket_width:5.0 ~buckets:40;
    miss_h =
      Metrics.histogram registry "host/miss_us" ~bucket_width:5.0 ~buckets:40;
  }

let preregister registry = ignore (build_cache registry)

(* The scope's floats, in a record of floats only: ocamlopt stores such
   a record flat, so updating a field allocates nothing, where a float
   field of a mixed record boxes every value stored into it. *)
type clock = {
  mutable now_us : float;  (** The modelled clock {!emit} advances. *)
  mutable at_us : float;  (** Timestamp of the event being recorded. *)
  mutable lookup_cost : float;  (** Modelled cost of the open lookup. *)
}

(* [cost_of] prices a (kind, count) with a fresh boxed float, so the
   scope asks it once per pair with a count below [price_slots] and
   keeps the answer; nan marks a pair not yet priced. *)
let price_slots = 64

type t = {
  sink : Trace_sink.t option;
  cache : metric_cache option;
  cost_of : Event.kind -> count:int -> float;
  prices : float array;  (* [kind_index * price_slots + count] *)
  clock : clock;
  mutable pid : int;
  kind_counts : int array;
  kind_costs : float array;
  (* state of the lookup currently being attributed (between ticks) *)
  mutable lookup_open : bool;
  mutable miss_path : bool;
  (* Probe batching buffer (see {!Probe}): pending events in flat
     parallel arrays, replayed in order by [flush]. [buf_at] is nan for
     modelled-clock events ([emit] semantics) and a timestamp for
     engine-clocked ones ([emit_at] semantics). Every direct operation
     below flushes first, so the buffer is invisible to readers. *)
  mutable buf_kind : int array;
  mutable buf_pid : int array;
  mutable buf_vpn : int array;
  mutable buf_count : int array;
  mutable buf_at : float array;
  mutable buf_len : int;
}

let create ?sink ?metrics ?cost_of () =
  {
    sink;
    cache = Option.map build_cache metrics;
    cost_of = Option.value cost_of ~default:(fun _ ~count:_ -> 0.0);
    prices = Array.make (Event.n_kinds * price_slots) Float.nan;
    clock = { now_us = 0.0; at_us = 0.0; lookup_cost = 0.0 };
    pid = 0;
    kind_counts = Array.make Event.n_kinds 0;
    kind_costs = Array.make Event.n_kinds 0.0;
    lookup_open = false;
    miss_path = false;
    buf_kind = Array.make 256 0;
    buf_pid = Array.make 256 0;
    buf_vpn = Array.make 256 0;
    buf_count = Array.make 256 0;
    buf_at = Array.make 256 0.0;
    buf_len = 0;
  }

(* Sentinels shared with the probe layer: vpn -1 and count 0 are what
   the trace sink's optional arguments default to, so plain ints can
   stand in for the option-typed interface with no boxing. *)
let no_vpn = -1

let no_count = 0

(* Account one event stamped at [t.clock.at_us]; with [advance] (the
   [emit] semantics) the modelled clock moves on by its cost. No float
   goes in or out, so the call boxes none. *)
let record t ~advance ~pid ~vpn ~count kind =
  (match t.sink with
  | None -> ()
  | Some s -> Trace_sink.emit s ~at_us:t.clock.at_us ~kind ~pid ~vpn ~count ());
  let i = Event.kind_index kind in
  t.kind_counts.(i) <- t.kind_counts.(i) + 1;
  let cost =
    if count < 0 || count >= price_slots then t.cost_of kind ~count
    else begin
      let slot = (i * price_slots) + count in
      if Float.is_nan t.prices.(slot) then
        t.prices.(slot) <- t.cost_of kind ~count;
      t.prices.(slot)
    end
  in
  t.kind_costs.(i) <- t.kind_costs.(i) +. cost;
  if advance then t.clock.now_us <- t.clock.now_us +. cost;
  if t.lookup_open then begin
    t.clock.lookup_cost <- t.clock.lookup_cost +. cost;
    match kind with
    | Event.Check_miss | Event.Ni_miss | Event.Interrupt ->
      t.miss_path <- true
    | _ -> ()
  end;
  match t.cache with
  | None -> ()
  | Some c ->
    Stats.Counter.incr c.kind_counters.(i);
    (match c.volume_counters.(i) with
    | Some volume when count > 0 -> Stats.Counter.add volume count
    | Some _ | None -> ())

(* Replay [emit] semantics: stamp at the modelled clock, then advance
   it by the event's cost. *)
let replay_emit t ~pid ~vpn ~count kind =
  t.clock.at_us <- t.clock.now_us;
  record t ~advance:true ~pid ~vpn ~count kind

let kind_of_index = Array.of_list Event.all_kinds

let flush t =
  if t.buf_len > 0 then begin
    let n = t.buf_len in
    t.buf_len <- 0;
    for i = 0 to n - 1 do
      let kind = kind_of_index.(t.buf_kind.(i)) in
      let pid = t.buf_pid.(i) in
      let vpn = t.buf_vpn.(i) in
      let count = t.buf_count.(i) in
      if Float.is_nan t.buf_at.(i) then replay_emit t ~pid ~vpn ~count kind
      else begin
        t.clock.at_us <- t.buf_at.(i);
        record t ~advance:false ~pid ~vpn ~count kind
      end
    done
  end

let buf_grow t =
  let cap = 2 * Array.length t.buf_kind in
  let grow a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.buf_len;
    b
  in
  t.buf_kind <- grow t.buf_kind 0;
  t.buf_pid <- grow t.buf_pid 0;
  t.buf_vpn <- grow t.buf_vpn 0;
  t.buf_count <- grow t.buf_count 0;
  t.buf_at <- grow t.buf_at 0.0

let buf_push t kind ~at_us ~pid ~vpn ~count =
  if t.buf_len = Array.length t.buf_kind then buf_grow t;
  let i = t.buf_len in
  t.buf_kind.(i) <- Event.kind_index kind;
  t.buf_pid.(i) <- pid;
  t.buf_vpn.(i) <- vpn;
  t.buf_count.(i) <- count;
  t.buf_at.(i) <- at_us;
  t.buf_len <- i + 1

let buffer_emit t kind ~pid ~vpn ~count =
  buf_push t kind ~at_us:Float.nan ~pid ~vpn ~count

let buffer_emit_at t kind ~at_us ~pid ~vpn ~count =
  buf_push t kind ~at_us ~pid ~vpn ~count

(* Direct operations flush pending probe events first so event order
   and every readable aggregate reflect program order. *)

let sink t =
  flush t;
  t.sink

let metrics t =
  flush t;
  Option.map (fun c -> c.registry) t.cache

let now_us t =
  flush t;
  t.clock.now_us

let set_time t us =
  flush t;
  t.clock.now_us <- us

let kind_count t kind =
  flush t;
  t.kind_counts.(Event.kind_index kind)

let kind_cost t kind =
  flush t;
  t.kind_costs.(Event.kind_index kind)

let by_cost t =
  flush t;
  Event.all_kinds
  |> List.filter_map (fun kind ->
         let n = t.kind_counts.(Event.kind_index kind) in
         if n = 0 then None
         else Some (kind, n, t.kind_costs.(Event.kind_index kind)))
  |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

let total_cost t =
  flush t;
  Array.fold_left ( +. ) 0.0 t.kind_costs

let emit_at t ~at_us ~pid ?vpn ?count kind =
  flush t;
  t.clock.at_us <- at_us;
  record t ~advance:false ~pid
    ~vpn:(Option.value ~default:no_vpn vpn)
    ~count:(Option.value ~default:no_count count)
    kind

let emit t ?pid ?vpn ?count kind =
  flush t;
  let pid = Option.value ~default:t.pid pid in
  (* Advance the modelled clock so successive events of one lookup get
     distinct, ordered timestamps in engine-less (driver) runs. *)
  replay_emit t ~pid
    ~vpn:(Option.value ~default:no_vpn vpn)
    ~count:(Option.value ~default:no_count count)
    kind

(* The open lookup's cost into [h]: [Histogram.observe]'s bucket,
   computed here so the cost is not boxed to cross into [Stats]. *)
let observe_lookup t h =
  Stats.Histogram.observe_bucket h
    (int_of_float
       (Float.floor (t.clock.lookup_cost /. Stats.Histogram.bucket_width h)))

let close_lookup t =
  if t.lookup_open then begin
    t.lookup_open <- false;
    (match t.cache with
    | None -> ()
    | Some c ->
      observe_lookup t c.lookup_h;
      if t.miss_path then observe_lookup t c.miss_h);
    t.clock.lookup_cost <- 0.0;
    t.miss_path <- false
  end

let tick t ~pid ~vpn ~npages () =
  flush t;
  close_lookup t;
  t.pid <- pid;
  t.lookup_open <- true;
  replay_emit t ~pid ~vpn ~count:npages Event.Lookup

let finish t =
  flush t;
  close_lookup t

(* The observer emits directly (flushing any probe backlog first) so
   the sink is current the moment [Engine.run] returns, with no flush
   obligation on the engine's caller. *)
let observe_engine t engine ~pid =
  Engine.set_dispatch_observer engine
    (Some
       (fun ~now:_ ~at ->
         flush t;
         t.clock.at_us <- Time.to_us at;
         record t ~advance:false ~pid ~vpn:no_vpn ~count:no_count
           Event.Dispatch))
