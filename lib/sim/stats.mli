(** Statistics collection for simulations.

    Three collectors:
    - {!Counter}: monotone event counts (misses, pinnings, ...).
    - {!Summary}: running mean / variance / min / max of a stream
      (Welford's algorithm, numerically stable over long runs).
    - {!Histogram}: fixed-bucket distribution, used for latency spreads. *)

module Counter : sig
  type t

  val create : string -> t

  val name : t -> string

  val incr : t -> unit

  val add : t -> int -> unit

  val value : t -> int

  val reset : t -> unit
end

module Summary : sig
  type t

  val create : string -> t

  val name : t -> string

  val observe : t -> float -> unit

  val count : t -> int

  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Population variance; 0 when fewer than two observations. *)

  val stddev : t -> float

  val min : t -> float
  (** 0 when empty (total, like {!mean}). *)

  val max : t -> float
  (** 0 when empty (total, like {!mean}). *)

  val m2 : t -> float
  (** Welford M2 aggregate (sum of squared deviations); exposed so
      snapshots can combine summaries exactly (parallel Welford). *)

  val total : t -> float

  val reset : t -> unit

  val pp : Format.formatter -> t -> unit
end

module Histogram : sig
  type t

  val create : name:string -> bucket_width:float -> buckets:int -> t
  (** Values [>= bucket_width * buckets] land in an overflow bucket. *)

  val name : t -> string

  val bucket_width : t -> float

  val buckets : t -> int
  (** Regular bucket count; {!bucket} index [buckets] is the overflow
      bucket. *)

  val observe : t -> float -> unit

  val observe_bucket : t -> int -> unit
  (** [observe_bucket t i] counts one value in bucket [i], clamped to
      [\[0, buckets\]]: [observe t x] is [observe_bucket t] of
      [int_of_float (Float.floor (x /. bucket_width t))]. It lets a
      caller holding [x] unboxed observe it without boxing it. *)

  val count : t -> int

  val bucket : t -> int -> int
  (** Count in bucket [i]; index [buckets] is the overflow bucket.
      @raise Invalid_argument on out-of-range index. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [0, 100]: upper edge of the bucket
      containing that rank (a conservative estimate).
      @raise Invalid_argument when empty or [p] out of range. *)

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0, 1]; total: clamps [q] and returns
      [0.] on an empty histogram. Same bucket-edge estimate as
      {!percentile}. *)

  val pp : Format.formatter -> t -> unit
end
