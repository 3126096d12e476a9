(** Packed pin-status bit vector.

    The Hierarchical-UTLB user-level library "only needs a bit array to
    maintain the memory-pinning status of virtual pages" (Section 3.3).
    The vector is a flat, growable array of 62-bit words, so the check
    operation of the paper's Table 1 ([all_set]/[first_clear]: scan a
    page range and report whether every page is pinned) runs word-wise
    — a fully pinned 62-page span costs one comparison, not 62 table
    probes. *)

type t

val create : unit -> t

val set : t -> int -> unit
(** Mark page [vpn] pinned. @raise Invalid_argument on negative vpn. *)

val clear : t -> int -> unit

val test : t -> int -> bool

val all_set : t -> vpn:int -> count:int -> bool
(** True when every page of [vpn .. vpn+count-1] is set.
    @raise Invalid_argument if [count <= 0]. *)

val first_clear : t -> vpn:int -> count:int -> int
(** Lowest unset page in the range, or -1 when every page is set.
    @raise Invalid_argument if [count <= 0]. *)

val first_set : t -> vpn:int -> count:int -> int
(** Lowest set page in the range, or -1 when none is. Between them,
    [first_clear] and [first_set] walk the range's clear runs without
    a closure or a list: a run starts at a [first_clear] and ends at
    the next [first_set].
    @raise Invalid_argument if [count <= 0]. *)

val clear_count : t -> vpn:int -> count:int -> int
(** Number of unset pages in the range, without building the list. *)

val population : t -> int
(** Number of set bits (maintained incrementally). *)

val recount : t -> int
(** Number of set bits recomputed by a popcount sweep of the backing
    words — the audit the differential tests compare against
    [population]. *)
