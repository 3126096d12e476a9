(* An event is its own cancellation handle: [cancel] marks the record
   and [step] drops a cancelled one when it reaches the top of the
   queue, so neither looks anything up. Ties at one instant fire in
   scheduling order because the heap breaks equal keys by insertion. *)
type state = Pending | Fired | Cancelled

type event = { at : Time.t; mutable state : state; action : unit -> unit }

type event_id = event

type t = {
  queue : event Heap.t;
  mutable clock : Time.t;
  mutable live : int;
  mutable monitor : (now:Time.t -> at:Time.t -> unit) option;
  mutable observer : (now:Time.t -> at:Time.t -> unit) option;
  (* Monitor and observer composed into one closure, recompiled on each
     set so [step] makes a single unconditional call instead of
     matching two options per dispatched event. *)
  mutable pre_dispatch : now:Time.t -> at:Time.t -> unit;
}

let no_dispatch_hook ~now:_ ~at:_ = ()

let create () =
  {
    queue = Heap.create ~cmp:(fun a b -> Time.compare a.at b.at);
    clock = Time.zero;
    live = 0;
    monitor = None;
    observer = None;
    pre_dispatch = no_dispatch_hook;
  }

let recompile_dispatch t =
  t.pre_dispatch <-
    (match (t.monitor, t.observer) with
    | None, None -> no_dispatch_hook
    | Some m, None -> m
    | None, Some o -> o
    | Some m, Some o ->
      fun ~now ~at ->
        m ~now ~at;
        o ~now ~at)

let set_dispatch_monitor t monitor =
  t.monitor <- monitor;
  recompile_dispatch t

let set_dispatch_observer t observer =
  t.observer <- observer;
  recompile_dispatch t

let now t = t.clock

let schedule_at t ~at action =
  if Time.(at < t.clock) then
    invalid_arg "Engine.schedule_at: time is in the past";
  let ev = { at; state = Pending; action } in
  Heap.push t.queue ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay action =
  if Time.(delay < zero) then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(Time.add t.clock delay) action

let cancel t ev =
  match ev.state with
  | Pending ->
    ev.state <- Cancelled;
    t.live <- t.live - 1
  | Fired | Cancelled -> ()

let pending t = t.live

(* Pops cancelled events off the top; true when a pending one is left
   there. *)
let rec pending_top t =
  (not (Heap.is_empty t.queue))
  &&
  match (Heap.peek_exn t.queue).state with
  | Pending -> true
  | Fired | Cancelled ->
    ignore (Heap.pop_exn t.queue);
    pending_top t

(* Fires the top event, which [pending_top] has just found pending. *)
let fire t =
  let ev = Heap.pop_exn t.queue in
  t.pre_dispatch ~now:t.clock ~at:ev.at;
  t.clock <- ev.at;
  ev.state <- Fired;
  t.live <- t.live - 1;
  ev.action ()

let step t =
  pending_top t
  && begin
    fire t;
    true
  end

let run ?until t =
  let limit = match until with Some limit -> limit | None -> max_int in
  while pending_top t && Time.((Heap.peek_exn t.queue).at <= limit) do
    fire t
  done;
  if Option.is_some until && Time.(t.clock < limit) then t.clock <- limit
