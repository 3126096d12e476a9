(** Discrete-event simulation engine.

    The engine owns a virtual clock and a priority queue of events.
    Components (NIC firmware, DMA engine, links, hosts) schedule
    callbacks at future instants; [run] dispatches them in timestamp
    order, breaking ties in scheduling order so runs are deterministic.

    A callback may schedule further events, including at the current
    instant (zero-delay events run after all earlier-scheduled events of
    the same timestamp). *)

type t

type event_id
(** Handle that can be used to cancel a pending event. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero}. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> delay:Time.t -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t + delay].
    @raise Invalid_argument if [delay] is negative. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> event_id
(** [schedule_at t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at] is in the past. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event; cancelling an already-fired or already-
    cancelled event is a no-op. *)

val pending : t -> int
(** Number of events scheduled that have neither fired nor been
    cancelled. *)

val run : ?until:Time.t -> t -> unit
(** Dispatch events in order until the queue drains, or until the clock
    would pass [until] (events at exactly [until] still fire). The clock
    ends at the timestamp of the last fired event, or at [until] if that
    is later and was supplied. *)

val step : t -> bool
(** Fire exactly one event. Returns [false] when none is pending. *)

val set_dispatch_monitor : t -> (now:Time.t -> at:Time.t -> unit) option -> unit
(** Install (or clear) a hook called immediately before each event is
    dispatched, with the clock as it stands and the event's timestamp.
    Used by the invariant sanitizer to assert monotonic dispatch: the
    engine itself rejects past scheduling, so a monitor firing with
    [at < now] means the priority queue is corrupt. *)

val set_dispatch_observer : t -> (now:Time.t -> at:Time.t -> unit) option -> unit
(** Install (or clear) a second pre-dispatch hook, independent of the
    sanitizer's {!set_dispatch_monitor} slot, so tracing can coexist
    with invariant checking. Used by [lib/obs] to emit one dispatch
    event per fired simulation event. *)
