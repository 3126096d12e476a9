(** Open-addressed hash map from non-negative int keys to a pair of
    int values — the flat replacement for tuple-keyed Hashtbls on the
    translation hot path. Linear probing over a power-of-two table,
    tombstone deletion, no allocation per operation.

    Lookups hand back a transient slot: an index valid until the next
    [add] (which may rehash). Callers probe once with [find] and read
    or write the payload through the slot accessors. *)

type t

val create : unit -> t

val length : t -> int
(** Number of live entries. *)

val find : t -> int -> int
(** Slot holding the key, or -1. @raise Invalid_argument on a negative
    key. *)

val mem : t -> int -> bool

val add : t -> int -> v0:int -> v1:int -> int
(** Insert or overwrite; returns the slot now holding the key. *)

val remove : t -> int -> unit

val value0 : t -> int -> int
(** Payload reads/writes through a slot returned by [find]/[add]. *)

val value1 : t -> int -> int

val set_value0 : t -> int -> int -> unit

val set_value1 : t -> int -> int -> unit

val key_at : t -> int -> int
(** Key stored in a slot; negative when the slot holds no entry. *)

val slots : t -> int
(** Slot count: walking slots [0 .. slots t - 1] with {!key_at} visits
    every live entry without a closure. *)

val iter : t -> (int -> v0:int -> v1:int -> unit) -> unit
(** Visit live entries in unspecified order. *)
