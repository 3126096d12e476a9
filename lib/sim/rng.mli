(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulator flows through a [Rng.t] so
    that every experiment is reproducible from a seed.  The generator is
    SplitMix64: fast, well-distributed, and trivially splittable, which
    lets each simulated process own an independent stream. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 word, kept unboxed
    in an 8-byte buffer, so {!int}, {!bool}, {!chance}, {!geometric},
    {!shuffle} and {!pick} allocate nothing. {!next_int64} and {!float}
    return a boxed value, as any int64 or float a function returns to
    another module is. *)

val create : seed:int64 -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s continuation. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive.
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]: the same draw and the same
    answer, without boxing the float. Use it wherever a draw is only
    compared with a probability. *)

val bool : t -> bool
(** Fair coin. *)

val geometric : t -> p:float -> int
(** [geometric t ~p] samples the number of failures before the first
    success of a Bernoulli(p) trial; used for bursty workload lengths.
    @raise Invalid_argument if [p] is outside (0, 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.
    @raise Invalid_argument on an empty array. *)
