(** The Myrinet Control Program (MCP) firmware loop.

    The MCP polls every process's command ring round-robin and hands
    each command to a handler (the VMMC layer installs one). Polling an
    empty set of rings idles the firmware until [kick]ed — the model's
    stand-in for the LANai spinning on its doorbells without burning
    simulated events.

    Per-command firmware occupancy is charged before the handler runs,
    so back-to-back commands from different processes serialise on the
    single LANai core, as on the real board. *)

type t

type handler = pid:Utlb_mem.Pid.t -> Command_queue.command -> unit

val create : Utlb_sim.Engine.t -> t
(** Each command dispatch charges 0.3 µs of firmware occupancy, the
    paper's command-processing overhead scale. *)

val attach : t -> Command_queue.t -> unit
(** Add a process ring to the polling rotation.
    @raise Invalid_argument if a ring for that pid is already attached. *)

val set_handler : t -> handler -> unit

val kick : t -> unit
(** Wake the firmware: schedule a polling pass if one is not already
    pending. User libraries call this after posting (the doorbell). *)

val commands_processed : t -> int

val busy : t -> bool
