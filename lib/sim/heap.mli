(** Mutable min-heap (4-ary, flat arrays), used as the event queue of
    the discrete-event engine.

    Elements are ordered by a user-supplied comparison fixed at creation.
    Ties are broken by insertion order (FIFO), which matters for the
    event queue: two events scheduled for the same instant fire in the
    order they were scheduled. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val peek_exn : 'a t -> 'a
(** {!peek} without the option, so it allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** {!pop} without the option, so it allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: all elements in ascending order. O(n log n). *)
