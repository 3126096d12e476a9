(** The NI DMA engine.

    Bulk data movement between pinned host pages and SRAM staging
    buffers ({!host_to_nic} / {!nic_to_host}): the message payload path.
    The Shared UTLB-Cache's translation-entry fetch (Table 2) is priced
    by [Utlb.Cost_model] inside the engines, not modelled here.

    Completions are delivered through the event engine; the DMA engine
    shares the I/O bus, so overlapping transfers serialise. *)

type t

val create : Io_bus.t -> t

val host_to_nic :
  ?frames:int array ->
  t ->
  src:(unit -> bytes) ->
  len:int ->
  on_done:(bytes -> unit) ->
  unit
(** Bulk DMA of [len] bytes from host memory into the NI. [src] is
    sampled at completion. [frames] names the host physical frames the
    transfer touches; each is checked by the installed frame guard (if
    any) at issue time. @raise Invalid_argument if [len < 0] or the
    sampled buffer length mismatches [len]. *)

val nic_to_host :
  ?frames:int array -> t -> data:bytes -> on_done:(bytes -> unit) -> unit
(** Bulk DMA of a staged SRAM buffer out to host memory. [frames] as in
    {!host_to_nic}. *)

val set_obs : t -> ?pid:int -> Utlb_obs.Scope.t option -> unit
(** Install (or clear) an observability scope. Every transfer then
    emits a begin/end span ([Dma_data_start]/[Dma_data_end] with
    [count] = bytes) covering exactly the bus window the transfer
    occupies. [pid] (default 0) attributes the spans, e.g. to a node
    id. *)

val set_frame_guard : t -> (frame:int -> unit) option -> unit
(** Install (or clear) a sanitizer guard consulted with every frame a
    bulk DMA declares via [?frames]. The guard is expected to report a
    violation when the frame is the pinned garbage frame or is not
    currently pinned — the safety property of the paper's Section 3.4
    that the NI never moves data through an unpinned page. *)

val bytes_moved : t -> int
