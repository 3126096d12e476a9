(** A complete network-interface card: SRAM (1 MB), I/O bus, DMA
    engine, and MCP firmware, assembled around one event engine.

    This is the substrate the VMMC layer drives. One [t] per simulated
    node. *)

type t

val create : Utlb_sim.Engine.t -> t

val bus : t -> Io_bus.t

val dma : t -> Dma.t

val mcp : t -> Mcp.t

val new_command_queue : t -> pid:Utlb_mem.Pid.t -> slots:int -> Command_queue.t
(** Allocate a command ring in this card's SRAM and attach it to the
    firmware rotation. *)
