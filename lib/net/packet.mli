(** Network packets.

    A Myrinet-style source-routed packet: the route is a list of switch
    output ports consumed hop by hop. The payload is opaque bytes — the
    VMMC layer serialises its own message format into it. A CRC covers
    the payload so the reliability layer can reject corrupted packets
    injected by the fault model. *)

type kind =
  | Data  (** Carries a payload; sequenced within a channel. *)
  | Ack of int  (** Cumulative acknowledgement up to (and incl.) seq. *)
  | Nack of int  (** Receiver saw a gap or bad CRC at seq. *)

type t = {
  src : int;  (** Source node id. *)
  dst : int;  (** Destination node id. *)
  chan : int;  (** Channel tag for demultiplexing at the receiver. *)
  seq : int;  (** Sequence number within the channel (Data only). *)
  kind : kind;
  route : int list;  (** Remaining switch output ports. *)
  payload : bytes;
  crc : int32;  (** CRC of the payload at send time. *)
}

val header_bytes : int
(** Fixed wire overhead per packet (route + header fields): 16. *)

val crc32 : bytes -> int32
(** CRC-32 (IEEE polynomial, table-driven implementation). *)

val make :
  src:int -> dst:int -> chan:int -> seq:int -> kind:kind -> route:int list ->
  payload:bytes -> t
(** Builds a packet with a correct CRC. *)

val wire_size : t -> int
(** Header plus payload bytes, used for serialisation delay. *)

val intact : t -> bool
(** Recompute the payload CRC and compare. *)

val corrupt : t -> t
(** Flip one payload bit (first byte); used by fault injection. On an
    empty payload, corrupts the stored CRC instead. *)

val pp : Format.formatter -> t -> unit
