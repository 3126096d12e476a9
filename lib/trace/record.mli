(** One communication-trace record.

    A record is one communication operation issued by one process on a
    node: a send (remote store) or a remote fetch of [npages] pages
    starting at virtual page [vpn]. This mirrors the instrumented VMMC
    traces of the paper (Section 6): each send/remote-read request with
    a globally synchronised timestamp. *)

type op = Send | Fetch

type t = {
  time_us : float;  (** Globally synchronised timestamp. *)
  pid : Utlb_mem.Pid.t;  (** Issuing process on this node. *)
  vpn : int;  (** First virtual page of the buffer. *)
  npages : int;  (** Pages spanned by the buffer (>= 1). *)
  op : op;
}

val make :
  time_us:float -> pid:Utlb_mem.Pid.t -> vpn:int -> npages:int -> op:op -> t
(** @raise Invalid_argument if [npages < 1], [vpn < 0], or the time is
    negative or not finite (NaN or an infinity; [1e400] parses as
    infinity). *)

val compare_time : t -> t -> int
(** Orders by timestamp, then pid, then vpn (a total order for
    deterministic serialisation of simultaneous records). *)

val to_string : t -> string
(** One-line text form: ["<time_us> <pid> <vpn> <npages> <S|F>"]. *)

val of_string : string -> (t, string) result
(** Parse the [to_string] form. Malformed input (wrong field count,
    unparseable numbers, an op other than [S]/[F]) is an [Error]
    naming the offending field and quoting the input (["vpn \"1e99\" is
    not an integer"]) — never an exception. A value {!make} refuses
    keeps {!make}'s message. *)

val of_line : line:int -> string -> (t, string) result
(** {!of_string} with a 1-based line number prefixed to the error
    message — the form trace loaders report. *)

val pp : Format.formatter -> t -> unit
