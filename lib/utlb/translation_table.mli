(** The Hierarchical-UTLB translation table (Section 3.3).

    A per-process two-level table indexed directly by virtual page
    number. The top-level directory lives in NI SRAM (one local memory
    reference on a Shared UTLB-Cache miss); second-level tables live in
    pinned host memory and are fetched over the I/O bus by DMA.

    Entries hold the physical frame of an explicitly pinned virtual
    page. Invalid entries hold the driver's garbage frame, so the NI can
    dereference any index without a validity check — at worst it moves
    data to or from the garbage page (Section 4.2).

    The module also implements the paper's extension for reclaiming
    second-level tables: a table can be swapped out to a disk block, in
    which case lookups report it and the caller must raise a host
    interrupt to swap it back in. *)

type t

val max_vpn : int
(** Largest virtual page number the two-level table covers. *)

val garbage_entry : int
(** -1: what {!lookup} returns for an entry holding the garbage
    frame. *)

val create :
  ?sram:Utlb_nic.Sram.t -> garbage_frame:int -> pid:Utlb_mem.Pid.t -> unit -> t
(** When [sram] is given, the 1024-entry top-level directory is
    allocated in NI SRAM (region ["utlb-dir-<pid>"]). *)

val pid : t -> Utlb_mem.Pid.t

val garbage_frame : t -> int

val install : t -> vpn:int -> frame:int -> unit
(** Driver path: store a pinned page's frame.
    @raise Invalid_argument on out-of-range vpn or negative frame. *)

val invalidate : t -> vpn:int -> unit
(** Reset the entry to the garbage frame. *)

val lookup : t -> vpn:int -> int
(** NI path: directory reference plus second-level read. The frame of
    a valid entry (>= 0); {!garbage_entry} for an entry holding the garbage
    frame; [-(block + 2)] when the entry's second-level table is
    swapped out to disk block [block], so every result below
    {!garbage_entry} means "swapped". *)

val valid_entries : t -> int
(** Entries currently holding a real (non-garbage) frame. *)

val second_level_tables : t -> int
(** Resident second-level tables (4 KB each in the real system). *)

val swap_out : t -> dir_index:int -> disk_block:int -> bool
(** Move a second-level table out to "disk". Returns [false] when the
    directory slot has no resident table. Valid entries within it are
    preserved and restored by [swap_in]. *)

val swap_in : t -> dir_index:int -> bool
(** Bring a swapped table back. Returns [false] if not swapped. *)

val swapped_tables : t -> int

val iter_valid : t -> (int -> int -> unit) -> unit
(** [iter_valid t f] calls [f vpn frame] for every valid (non-garbage)
    entry in resident second-level tables, ascending vpn. *)
