(** Network-interface device model: SRAM, I/O bus, bulk DMA engine,
    per-process command rings, and the MCP firmware loop. *)

module Sram = Sram
module Io_bus = Io_bus
module Dma = Dma
module Command_queue = Command_queue
module Mcp = Mcp
module Nic = Nic
