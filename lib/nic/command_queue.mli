(** Per-process command post rings.

    The VMMC driver allocates a command buffer in NI SRAM for each
    process and maps it into the process's address space; the user
    library posts requests there and the MCP firmware polls the rings
    round-robin (Section 4.2). The command-buffer identity doubles as
    the process identity — exactly the protection scheme of the paper.

    Commands are small fixed records; payload data never travels through
    the ring. *)

type command =
  | Send of { lvaddr : int; nbytes : int; dest_node : int; dest_import : int }
      (** Remote store from a local buffer into an imported buffer. *)
  | Fetch of { lvaddr : int; nbytes : int; src_node : int; src_import : int }
      (** Remote fetch from an imported buffer into a local buffer. *)
  | Redirect of { import_id : int; new_vaddr : int }
      (** Transfer-redirection: point an expected incoming transfer at a
          different user buffer. *)
  | Noop  (** Firmware liveness ping, used by tests. *)

type t

val create : Sram.t -> pid:Utlb_mem.Pid.t -> slots:int -> t
(** Carve a ring of [slots] command slots for [pid] out of SRAM.
    @raise Invalid_argument if [slots <= 0] or SRAM is exhausted. *)

val pid : t -> Utlb_mem.Pid.t

val capacity : t -> int

val post : t -> command -> bool
(** Enqueue a command; [false] when the ring is full (the user library
    must back off and retry — there is no blocking in user space). *)

val poll : t -> command option
(** Firmware side: dequeue the oldest command. *)

val pending : t -> int
