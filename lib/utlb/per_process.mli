(** The Per-process UTLB (Section 3.1) — the paper's first design.

    A fixed-size translation table lives in NI SRAM for each process
    (allocated at creation, region ["pp-utlb-<pid>"] when SRAM is
    given). The user-level library keeps a two-level {!Lookup_tree}
    from virtual page to table index plus a free-index list. On a check
    miss it pins the pages and installs their frames at free indices;
    when the table fills, it evicts victims with the configured policy,
    unpinning them and freeing their indices.

    The NI reads the physical address by direct table indexing — there
    are no NI-side misses, but SRAM capacity bounds the table (the
    motivation for the Shared UTLB-Cache). {!index} exposes the
    fragmentation the paper says Hierarchical-UTLB eliminates: the
    indices a multi-page buffer maps to need not be contiguous. *)

type t

val create :
  ?sram:Utlb_nic.Sram.t ->
  host:Utlb_mem.Host_memory.t ->
  pid:Utlb_mem.Pid.t ->
  table_entries:int ->
  policy:Replacement.policy ->
  seed:int64 ->
  unit ->
  t
(** @raise Invalid_argument if [table_entries <= 0] or SRAM is
    exhausted. *)

val pid : t -> Utlb_mem.Pid.t

val table_entries : t -> int

val occupancy : t -> int
(** Indices currently holding a valid translation. *)

val sram_bytes : t -> int
(** SRAM consumed by the table (8 bytes per entry). *)

val lookup : t -> vpn:int -> npages:int -> bool
(** Translate a buffer, pinning and installing as needed. [true] when
    the user-level check missed, i.e. some page had no table entry; the
    pages pinned and unpinned are the moves of {!pins} and {!unpins}.
    Pages past {!Lookup_tree.max_vpn} get no entry and are never pinned
    (the NI reads the garbage frame for them); they always miss.
    @raise Invalid_argument if [npages < 1] or larger than the table. *)

val index : t -> vpn:int -> int
(** Table index holding the page's translation, or -1. *)

val release : t -> int
(** Process exit: evict (and unpin) every page still resident in the
    table, leaving it empty. Returns the number of pages released. *)

val translate_index : t -> index:int -> int option
(** NI path: read the frame stored at a table index. [None] when the
    slot holds the garbage frame. *)

val is_pinned : t -> vpn:int -> bool

val self_check : t -> string list
(** Cross-check every layer of the per-process design against the
    host: SRAM table occupancy, lookup-tree and replacement-tracker
    agreement, free-list accounting, and per-entry frame/pin
    consistency. Returns one description per violation; [[]] when
    healthy. *)

val pins : t -> int
(** Total pages pinned over the object's lifetime. *)

val unpins : t -> int
