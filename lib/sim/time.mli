(** Simulated time.

    Time is an integer count of nanoseconds since simulation start.
    Nanosecond granularity keeps every cost in the paper (expressed in
    microseconds with one decimal) exactly representable, so no rounding
    drift accumulates across millions of events. *)

type t = int
(** Nanoseconds. Always non-negative in a running simulation. An
    unboxed [int] (63 bits on the 64-bit hosts this builds for), so no
    time value allocates. *)

val zero : t

val of_ns : int -> t

val of_us : float -> t
(** [of_us x] converts microseconds to nanoseconds, rounding to nearest.
    @raise Invalid_argument if [x] is NaN, infinite, or too large for a
    [t]. *)

val to_us : t -> float

val to_ms : t -> float

val add : t -> t -> t

val sub : t -> t -> t

val compare : t -> t -> int

val ( + ) : t -> t -> t

val ( - ) : t -> t -> t

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Prints as microseconds with three decimals, e.g. ["12.500us"]. *)
