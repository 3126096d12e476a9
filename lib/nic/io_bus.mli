(** The host I/O bus (PCI in the paper's PCs).

    Carries the bulk data DMA between host DRAM and NI SRAM. A transfer
    costs a fixed 1.0 µs setup plus its bytes at 127 MB/s, the paper's
    sustained PCI bandwidth. The Table-2 translation-entry fetch is
    priced by [Utlb.Cost_model], not here.

    Costs are returned as {!Utlb_sim.Time.t}; callers schedule
    completions on the event engine. The bus serialises transactions:
    a transaction issued while the bus is busy queues behind the
    current one. *)

type t

val create : Utlb_sim.Engine.t -> t

val engine : t -> Utlb_sim.Engine.t
(** The event engine the bus schedules completions on. *)

val set_obs : t -> ?pid:int -> Utlb_obs.Scope.t option -> unit
(** Install (or clear) an observability scope: every submitted
    transaction then emits a bus-occupancy span ([Bus_start] at the
    instant the transaction wins the bus, [Bus_end] at completion),
    attributed to [pid] (default 0; a node id under SVM). *)

val data_cost : bytes:int -> Utlb_sim.Time.t
(** Latency of a bulk transfer of [bytes] bytes.
    @raise Invalid_argument if [bytes < 0]. *)

val submit : t -> cost:Utlb_sim.Time.t -> (unit -> unit) -> unit
(** [submit t ~cost k] occupies the bus for [cost], then calls [k].
    Transactions are serviced FIFO. *)

val busy_until : t -> Utlb_sim.Time.t
(** Instant at which the bus next becomes idle. *)

val transactions : t -> int
(** Number of transactions submitted so far. *)
