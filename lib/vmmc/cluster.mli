(** Virtual Memory-Mapped Communication over the simulated cluster.

    This is the end-to-end integration the paper built UTLB for: a
    cluster of nodes, each with a NIC (SRAM, DMA, firmware), connected
    by a Myrinet-class fabric with reliable link-level channels, running
    VMMC with address translation on both the send and receive sides.
    Every node runs the engine [config.translation] names: by default
    the Hierarchical-UTLB, but any registered engine (the
    interrupt-based baseline, per-process tables, the Victima and
    Utopia backstops) runs the same VMMC stack, so the Table 4/6
    comparison runs end to end instead of analytically. Each lookup is
    priced by the engine's pin protocol ({!Utlb.Stepper.semantics}).

    The model implements the VMMC operations of Section 4.1:
    - {e export}/{e import} of receive buffers with permission keys;
    - {e remote store} ([send]): direct transfer from a local virtual
      buffer into a remote process's exported buffer;
    - {e remote fetch} ([fetch]): the VMMC-2 extension pulling data from
      a remote exported buffer into a local buffer;
    - {e transfer redirection} ([redirect]): retargeting incoming data
      to a different user buffer, with the destination pinned on demand
      through the UTLB — the zero-copy enabler;
    - reliable delivery via go-back-N retransmission.

    The firmware breaks transfers at 4 KB page boundaries and translates
    one page at a time (the paper's footnote 1); stores addressed to an
    unknown export or carrying a wrong key land on the garbage page —
    they are counted and discarded, harming nothing (Section 4.2).

    All activity runs on one discrete-event engine; [run] drives it to
    quiescence and simulated time accumulates per the cost model. *)

type t

type process

type topology =
  | Star of int  (** [Star n]: n hosts around one switch. *)
  | Chain of { switches : int; hosts_per_switch : int }
      (** Cascaded switches for larger clusters. *)

type config = {
  topology : topology;
  seed : int64;
  translation : Utlb.Sim_driver.packed;
      (** The engine every NI runs, e.g. from
          {!Utlb.Sim_driver.Registry.resolve}. *)
  faults : Utlb_net.Link.fault_model;
  channel_window : int;
  command_slots : int;  (** Per-process command ring capacity. *)
}

val default_config : config
(** 4 nodes, the paper's UTLB defaults, a fault-free fabric. *)

val create : ?config:config -> unit -> t
(** @raise Invalid_argument when the engine refuses its config. *)

val engine : t -> Utlb_sim.Engine.t

val node_count : t -> int

val spawn : t -> node:int -> process
(** Register a new process on a node: allocates its pid, command ring
    in NIC SRAM, and translation state.
    @raise Invalid_argument when the node's engine admits no more
    processes (per-process tables, one per process, all taken). *)

val kill_process : t -> process -> int
(** Process exit in a multiprogramming environment: revoke the
    process's exports, drop its translation state (NI cache lines,
    tables), and unpin every page it still holds. Returns the number of
    pages released. In-flight transfers addressed to its exports fall
    onto the garbage page. Idempotent (a second kill releases 0). *)

val run : ?until_us:float -> t -> unit
(** Drive the event engine until it drains (all communication and
    retransmission activity settles) or until the given simulated time. *)

val now_us : t -> float

val nic : t -> node:int -> Utlb_nic.Nic.t

val utlb_report : t -> node:int -> Utlb.Report.t
(** The node's engine counters, labelled ["vmmc-nodeN"]. *)

(** {2 Cluster-wide statistics} *)

val sends_completed : t -> int

val fetches_completed : t -> int

val stores_received : t -> int

val garbage_stores : t -> int
(** Stores dropped onto the garbage page (bad export id or key). *)

val ring_desyncs : t -> int
(** Commands dropped because the ring and its host-side metadata queue
    disagreed (missing metadata, or a kind mismatch at the queue head).
    Each drop is logged and the firmware keeps running. *)

val retransmissions : t -> int

val send_latency : t -> Utlb_sim.Stats.Summary.t
(** Post-to-acknowledgement latency of remote stores, µs. *)

module Process : sig
  type import
  (** Handle to an imported remote receive buffer. *)

  val pid : process -> Utlb_mem.Pid.t

  val node : process -> int

  val write_memory : process -> vaddr:int -> bytes -> unit
  (** Host-side write into the process's virtual memory. *)

  val read_memory : process -> vaddr:int -> len:int -> bytes

  val export : process -> vaddr:int -> len:int -> int * int
  (** [export p ~vaddr ~len] makes a receive buffer visible to remote
      importers; pins it and installs its translations (VMMC requires
      exported buffers resident). Returns [(export_id, key)].
      @raise Invalid_argument if [len <= 0]. *)

  val import : process -> node:int -> export_id:int -> key:int -> import
  (** Gain access to a remote exported buffer. The key is checked on
      every transfer, not at import time (imports are unauthenticated
      handles, as in VMMC). @raise Invalid_argument on a bad node. *)

  val send :
    process -> ?on_complete:(unit -> unit) -> import -> lvaddr:int ->
    offset:int -> len:int -> unit
  (** Remote store: transfer [len] bytes from local virtual address
      [lvaddr] into the imported buffer at [offset]. [on_complete] fires
      when the data is acknowledged by the remote NI.
      @raise Invalid_argument if [len <= 0] or the command ring is full
      after backoff. *)

  val fetch :
    process -> ?on_complete:(unit -> unit) -> import -> offset:int ->
    len:int -> lvaddr:int -> unit
  (** Remote fetch: pull [len] bytes from the imported buffer at
      [offset] into local address [lvaddr]. *)

  val redirect : process -> export_id:int -> new_vaddr:int -> unit
  (** Transfer-redirection on one of this process's own exports:
      subsequent incoming stores land at [new_vaddr] instead of the
      exported address. The redirected buffer is pinned on demand
      through the UTLB when data arrives.
      @raise Invalid_argument if the export is not owned by [process]. *)

  val clear_redirect : process -> export_id:int -> unit

  (** {2 Notifications}

      VMMC delivers receive notifications: each completed incoming store
      enqueues one, and the application polls at its convenience (there
      is no interrupt). *)

  type notification = {
    n_export_id : int;
    n_offset : int;  (** Offset within the exported buffer. *)
    n_len : int;
    n_time_us : float;  (** Simulated completion time. *)
  }

  val poll_notification : process -> notification option

  val pending_notifications : process -> int

  (** {2 Fault-plane testing hook} *)

  val post_rogue : process -> Utlb_nic.Command_queue.command -> bool
  (** Write a raw command into the process's ring with {e no} host-side
      metadata and {e no} doorbell — what a buggy or malicious user
      library scribbling the mapped ring looks like to the firmware.
      Returns [false] when the ring is full (the rogue writer sees the
      same backpressure as the driver). The firmware must survive the
      resulting ring/metadata disagreement: such commands are dropped
      and counted in {!ring_desyncs}. *)
end
