(** Three-C classification of Shared UTLB-Cache misses (Figure 7).

    Uses the standard methodology (Hill 1987, cited by the paper): a
    miss is {e compulsory} on the first-ever reference to a
    (process, page) pair; otherwise it is {e capacity} if a
    fully-associative LRU cache with the same entry count would also
    have missed, and {e conflict} if only the real (set-indexed) cache
    missed.

    Feed the classifier every access: [note_hit] on real-cache hits
    keeps the shadow LRU stack in sync; [classify] on real-cache misses
    returns the miss kind and updates the shadow.

    Every page in the shadow has been seen, so one probe of the shadow
    table both decides the kind and finds the node to move: an access
    the shadow holds (a hit, or a conflict miss) costs that one probe;
    one it lacks adds one probe of the pages seen, which says whether
    the miss is compulsory, and the insert (plus the LRU tail's removal
    when the shadow is full). Nothing allocates after [create]. *)

type kind = Compulsory | Capacity | Conflict

val kind_name : kind -> string

type t

val create : capacity:int -> t
(** [capacity] = the real cache's entry count.
    @raise Invalid_argument if not positive. *)

val note_hit : t -> pid:Utlb_mem.Pid.t -> vpn:int -> unit

val classify : t -> pid:Utlb_mem.Pid.t -> vpn:int -> kind

val note_invalidate : t -> pid:Utlb_mem.Pid.t -> vpn:int -> unit
(** Mirror an unpin-driven invalidation into the shadow cache so later
    misses on that page are not blamed on capacity. *)

val compulsory : t -> int

val capacity_misses : t -> int

val conflict : t -> int

val self_check : t -> string list
(** Structural divergence check of the shadow cache: recency list,
    hash table, and size/capacity accounting must agree. Returns one
    description per inconsistency; [[]] when healthy. The invariant
    sanitizer reports these as shadow-cache divergence. *)

val corrupt_for_testing : t -> unit
(** Deliberately desynchronise the shadow structures so tests can
    assert that {!self_check} (and the sanitizer built on it) detects
    divergence. Never call outside tests. *)
