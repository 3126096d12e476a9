(** The simulated host operating-system memory subsystem.

    This is the only OS facility UTLB needs (Section 3 of the paper):
    demand paging, page pinning/unpinning with reference counts, and
    virtual-to-physical lookup. The device driver layer above calls
    [pin]/[unpin]; the NIC model reads translations through
    [translate].

    Paging: when DRAM runs out, an unpinned resident page is evicted
    (clock scan); pinned pages are never evicted, which is exactly the
    guarantee the NI relies on. *)

type t

type pin_error = [ `Out_of_memory ]

val create : ?frames:int -> unit -> t
(** [create ~frames ()] simulates a host with [frames] DRAM frames
    (default 65536 = 256 MB, the paper's SMP nodes).
    @raise Invalid_argument if [frames < 2]. *)

val add_process : t -> Pid.t -> unit
(** Register a process. Idempotent. *)

val has_process : t -> Pid.t -> bool

val garbage_frame : t -> int
(** The driver's pinned garbage frame (see {!Frame_allocator}). *)

val translate : t -> Pid.t -> vpn:int -> int option
(** Frame backing [vpn] if resident, without faulting it in.
    @raise Invalid_argument for an unknown process. *)

val ensure_resident : t -> Pid.t -> vpn:int -> (int, pin_error) result
(** Fault the page in if needed (possibly evicting an unpinned page)
    and return its frame. *)

val pin_into : t -> Pid.t -> vpn:int -> count:int -> int array -> bool
(** [pin_into t pid ~vpn ~count frames] pins the contiguous range
    [vpn .. vpn+count-1], faulting pages in as needed, and writes their
    frames to [frames.(0 .. count-1)] (a buffer the caller owns and
    reuses). [false] when DRAM ran out: no page of the range is then
    left pinned by this call.
    @raise Invalid_argument if [count <= 0], the range leaves
    [0 .. Page_table.max_vpn], or [frames] is shorter than [count];
    nothing is pinned then either. *)

val pin : t -> Pid.t -> vpn:int -> count:int -> (int array, pin_error) result
(** {!pin_into} with a fresh buffer, as a result: the form callers that
    match on the outcome use. *)

val unpin : t -> Pid.t -> vpn:int -> count:int -> unit
(** Decrement pin counts over the range.
    @raise Invalid_argument if some page in the range is not pinned. *)

val is_pinned : t -> Pid.t -> vpn:int -> bool

val pin_count : t -> Pid.t -> vpn:int -> int

val pinned_pages : t -> Pid.t -> int
(** Number of distinct pages with a positive pin count. *)

val recount_pinned : t -> Pid.t -> int
(** Like {!pinned_pages} but recomputed by a full page-table walk
    rather than read from the incremental counter; the invariant
    sanitizer compares the two to detect accounting drift. *)

val frame_owner : t -> frame:int -> (Pid.t * int) option
(** The (pid, vpn) currently backed by physical [frame], if any. The
    garbage frame and never-allocated frames have no owner. *)

val resident_pages : t -> Pid.t -> int

val free_frames : t -> int

(** Operation counters, for experiment accounting. *)

val faults : t -> int
(** Pages made resident on demand. *)

val evictions : t -> int
(** Unpinned pages evicted to satisfy demand. *)

val pin_calls : t -> int
(** Number of [pin] invocations (one ioctl each in the real system). *)

val pages_pinned : t -> int

val unpin_calls : t -> int

val pages_unpinned : t -> int

val reset_counters : t -> unit
