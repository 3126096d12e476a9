(** VMMC wire messages.

    Three message kinds travel between NIs over the reliable channels:
    remote stores (the basic VMMC send), remote-fetch requests, and
    remote-fetch replies (the VMMC-2 extension). Messages serialise to
    packet payloads; the firmware never trusts a payload — parsing
    returns [Error] on malformed input. *)

type t =
  | Store of { export_id : int; key : int; offset : int; data : bytes }
      (** Write [data] into the exported buffer at [offset]. *)
  | Fetch_request of {
      req_id : int;
      export_id : int;
      key : int;
      offset : int;
      len : int;
    }
  | Fetch_reply of { req_id : int; ok : bool; data : bytes }

val to_bytes : t -> bytes

val store_bytes :
  export_id:int -> key:int -> offset:int -> bytes -> pos:int -> len:int ->
  bytes
(** [store_bytes ~export_id ~key ~offset data ~pos ~len] is
    [to_bytes (Store {export_id; key; offset; data = Bytes.sub data pos
    len})] without the intermediate copy: the firmware encodes each page
    chunk straight from its DMA buffer.
    @raise Invalid_argument if [pos, len] is not a range of [data]. *)

val of_bytes : bytes -> (t, string) result

val kind_name : t -> string
