(** Addresses and pages.

    The whole system uses the paper's 4 KB page size. Virtual addresses
    are process-local; physical addresses name host DRAM. Both are plain
    integers wrapped in abstract types so they cannot be mixed up. *)

val page_size : int
(** 4096 bytes. *)

val page_shift : int
(** 12. *)

val pages_of_mb : int -> int
(** [pages_of_mb mb] is a memory limit of [mb] megabytes in pages (256
    per MB): the one conversion behind every [limit-mb] and [limit_mb].
    @raise Invalid_argument naming [mb] if it is negative or its page
    count does not fit an int (past [max_int / 256] MB). *)

module Vaddr : sig
  type t

  val of_int : int -> t
  (** @raise Invalid_argument on negatives. *)

  val to_int : t -> int

  val page : t -> int
  (** Virtual page number. *)

  val offset : t -> int
  (** Offset within the page. *)

  val of_page : ?offset:int -> int -> t
  (** [of_page ~offset vpn] builds an address inside page [vpn].
      @raise Invalid_argument if [offset] is outside [0, page_size). *)

  val add : t -> int -> t

  val compare : t -> t -> int

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

module Paddr : sig
  type t

  val of_int : int -> t
  (** @raise Invalid_argument on negatives. *)

  val to_int : t -> int

  val frame : t -> int
  (** Physical frame number. *)

  val of_frame : ?offset:int -> int -> t

  val compare : t -> t -> int

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

val pages_spanned : Vaddr.t -> bytes:int -> int
(** Number of distinct virtual pages covered by a buffer of [bytes]
    bytes starting at the given address. Zero-length buffers span zero
    pages.
    @raise Invalid_argument on negative [bytes]. *)
