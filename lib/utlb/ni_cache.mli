(** The Shared UTLB-Cache (Section 3.2).

    A translation cache on the network interface shared by all
    processes. Each line holds a physical frame plus the tag pair
    (process tag, virtual-address tag) of the paper's cache-line format.

    Geometry covers the paper's four configurations:
    - [Direct_nohash]: direct-mapped, index = vpn mod sets;
    - [Direct]: direct-mapped with per-process index offsetting, the
      paper's chosen design;
    - [Two_way] / [Four_way]: set-associative with offsetting and LRU
      within the set.

    Lookup cost in firmware grows with associativity (the LANai checks
    one entry at a time), which is why the paper's direct-mapped choice
    wins on cost even where set-associativity has slightly fewer misses:
    [probe_cost_entries] reports how many entries the last lookup
    examined. *)

type associativity = Direct_nohash | Direct | Two_way | Four_way

val ways : associativity -> int

val associativity_name : associativity -> string

val associativity_of_string : string -> associativity option

type config = { entries : int; associativity : associativity }
(** [entries] must be a positive multiple of the way count, and the set
    count must be a power of two (the paper sweeps 1K-16K). *)

val sets_of_config : config -> int option
(** Static geometry: the set count a cache built from [config] would
    have, or [None] when the geometry is invalid ([create] would
    raise). Lets static analyses reason about a configuration without
    allocating the line array. *)

val static_set_index : config -> pid:int -> vpn:int -> int option
(** Static geometry: the set a [(pid, vpn)] line maps to under
    [config] — the same per-process offset hash a built cache uses
    ([None] on an invalid geometry). *)

type t

val create : config -> t
(** @raise Invalid_argument on an invalid geometry. *)

val config : t -> config

val sets : t -> int

val set_window :
  t -> pid:Utlb_mem.Pid.t -> base:int -> mask:int -> offset:int -> unit
(** Restrict [pid]'s index window for multi-tenant partitioning: the
    set index becomes [base + ((hash + offset) land mask)]. The default
    window [(0, sets-1, 0)] reproduces the historical index function
    exactly. [static_set_index] ignores windows (it predicts the
    unpartitioned geometry).
    @raise Invalid_argument when [mask+1] is not a power of two or the
    window exceeds the set count. *)

val lookup : t -> pid:Utlb_mem.Pid.t -> vpn:int -> int
(** Frame on a hit, -1 on a miss; updates the set's LRU state and hit
    counters. *)

val insert : t -> pid:Utlb_mem.Pid.t -> vpn:int -> frame:int -> bool
(** Fill a line; [true] when a valid line was displaced, which
    {!evicted_pid}, {!evicted_vpn} and {!evicted_frame} then describe.
    Inserting an already-present mapping refreshes it in place and
    evicts nothing. *)

val evicted_pid : t -> Utlb_mem.Pid.t
(** The line the last evicting {!insert} displaced (per cache, so
    engines running on other domains never see each other's). *)

val evicted_vpn : t -> int

val evicted_frame : t -> int

val invalidate : t -> pid:Utlb_mem.Pid.t -> vpn:int -> bool
(** Drop a mapping if cached (unpin path). True when present. *)

val invalidate_process : t -> pid:Utlb_mem.Pid.t -> int
(** Drop all of a process's lines (process exit); returns the count. *)

val contains : t -> pid:Utlb_mem.Pid.t -> vpn:int -> bool
(** Probe without touching LRU state or counters. *)

val peek : t -> pid:Utlb_mem.Pid.t -> vpn:int -> int
(** Frame for a cached mapping, or -1, without touching LRU state or
    counters (sanitizer probe). *)

val iter_valid :
  t -> (pid:Utlb_mem.Pid.t -> vpn:int -> frame:int -> unit) -> unit
(** Iterate over every valid line (sanitizer full-cache scan). *)

val valid_lines : t -> int

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val probe_cost_entries : t -> int
(** Total entries examined across all lookups (firmware cost proxy). *)

val reset_counters : t -> unit

val size_bytes : t -> int
(** SRAM the cache would occupy at 4 bytes per line (32 KB at the
    paper's 8 K entries). *)
