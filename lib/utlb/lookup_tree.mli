(** Two-level user-level lookup tree (per-process UTLB, Section 3.1).

    Maps a virtual page number to the index in the process's protected
    translation table where that page's physical address is stored. The
    structure is the classic 10/10 two-level page-table layout, so a
    lookup is exactly two memory references — the property the paper's
    fast-path cost depends on.

    An entry is either invalid or holds a translation-table index. *)

type t

val create : unit -> t

val max_vpn : int

val find : t -> int -> int
(** Translation-table index for this page, or -1 when none is
    installed.
    @raise Invalid_argument on an out-of-range vpn. *)

val set : t -> int -> index:int -> unit
(** @raise Invalid_argument on a negative index. *)

val remove : t -> int -> unit
(** No-op when absent. *)

val entries : t -> int
(** Number of valid entries. *)

val memory_references : int
(** Cost of one lookup in memory references: 2. *)

val iter : t -> (int -> int -> unit) -> unit
(** [iter t f] calls [f vpn index] for every valid entry, ascending. *)
