type t = {
  sram : Sram.t;
  bus : Io_bus.t;
  dma : Dma.t;
  mcp : Mcp.t;
}

let create engine =
  let sram = Sram.create () in
  let bus = Io_bus.create engine in
  let mcp = Mcp.create engine in
  { sram; bus; dma = Dma.create bus; mcp }

let bus t = t.bus

let dma t = t.dma

let mcp t = t.mcp

let new_command_queue t ~pid ~slots =
  let ring = Command_queue.create t.sram ~pid ~slots in
  Mcp.attach t.mcp ring;
  ring
