(** Physical frame allocator.

    Manages the pool of host DRAM frames. Frame 0 is reserved at
    creation for the driver's pinned "garbage page" (Section 4.2 of the
    paper): translation-table entries are initialised to it so the NI
    never dereferences an invalid index.

    The frame freed last is handed out first; with none freed, the
    lowest frame never handed out is. Creation allocates nothing per
    frame (a bump pointer and a stack of freed frames grown on demand),
    and {!alloc} allocates nothing. *)

type t

val create : frames:int -> t
(** [create ~frames] manages frames [0 .. frames-1]; frame 0 is
    immediately reserved as the garbage frame.
    @raise Invalid_argument if [frames < 2]. *)

val garbage_frame : t -> int
(** Always 0; pinned forever. *)

val total : t -> int

val free_count : t -> int

val in_use : t -> int

val alloc : t -> int
(** Take a free frame, or -1 when DRAM is exhausted. *)

val free : t -> int -> unit
(** Return a frame to the pool.
    @raise Invalid_argument on the garbage frame, an out-of-range frame,
    or a double free. *)

val is_allocated : t -> int -> bool
