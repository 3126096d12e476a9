(** User-level replacement policies for pinned pages (Section 3.4).

    "UTLB predefines five replacement policies for applications to
    choose: LRU, MRU, LFU, MFU, and RANDOM." The tracker maintains the
    set of pinned pages with per-page recency and frequency, and selects
    eviction victims according to the chosen policy.

    Victims involved in outstanding requests are excluded — the
    correctness requirement of Section 3.1 (never unpin a page with an
    outstanding send): the engines pass the in-flight span's bounds to
    {!select_outside}, other callers a predicate to {!select_victim}. *)

type policy = Lru | Mru | Lfu | Mfu | Random

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Case-insensitive. *)

val all_policies : policy list

type t

val create : policy -> rng:Utlb_sim.Rng.t -> t

val policy : t -> policy

val insert : t -> int -> unit
(** Track a newly pinned page (counts as a use).
    @raise Invalid_argument if already tracked. *)

val touch : t -> int -> unit
(** Record a use. Unknown pages are ignored (they are not pinned). *)

val remove : t -> int -> unit
(** Stop tracking (page force-unpinned). No-op when absent. *)

val mem : t -> int -> bool

val size : t -> int

val select_outside : t -> vpn:int -> npages:int -> int
(** Choose a victim per the policy outside the span
    [\[vpn, vpn + npages)] and remove it from the tracker; -1 when every
    tracked page lies in the span or none is tracked. [npages = 0]
    protects nothing. The engines' form: no closure, no option. *)

val select_victim : t -> ?protect:(int -> bool) -> unit -> int option
(** Choose a victim per the policy among pages [protect] rejects and
    remove it from the tracker. [None] when every page is protected or
    the set is empty. The same choice {!select_outside} makes, wrapped
    for callers that match on an option. *)
