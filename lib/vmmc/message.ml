type t =
  | Store of { export_id : int; key : int; offset : int; data : bytes }
  | Fetch_request of {
      req_id : int;
      export_id : int;
      key : int;
      offset : int;
      len : int;
    }
  | Fetch_reply of { req_id : int; ok : bool; data : bytes }

let kind_name = function
  | Store _ -> "store"
  | Fetch_request _ -> "fetch-request"
  | Fetch_reply _ -> "fetch-reply"

(* Layout: 1-byte tag, fixed 32-bit/64-bit little-endian header fields,
   then the variable-length data. *)

let store_bytes ~export_id ~key ~offset data ~pos ~len =
  let b = Bytes.create (1 + 4 + 4 + 8 + len) in
  Bytes.set b 0 '\001';
  Bytes.set_int32_le b 1 (Int32.of_int export_id);
  Bytes.set_int32_le b 5 (Int32.of_int key);
  Bytes.set_int64_le b 9 (Int64.of_int offset);
  Bytes.blit data pos b 17 len;
  b

let to_bytes t =
  match t with
  | Store { export_id; key; offset; data } ->
    store_bytes ~export_id ~key ~offset data ~pos:0 ~len:(Bytes.length data)
  | Fetch_request { req_id; export_id; key; offset; len } ->
    let b = Bytes.create (1 + 4 + 4 + 4 + 8 + 4) in
    Bytes.set b 0 '\002';
    Bytes.set_int32_le b 1 (Int32.of_int req_id);
    Bytes.set_int32_le b 5 (Int32.of_int export_id);
    Bytes.set_int32_le b 9 (Int32.of_int key);
    Bytes.set_int64_le b 13 (Int64.of_int offset);
    Bytes.set_int32_le b 21 (Int32.of_int len);
    b
  | Fetch_reply { req_id; ok; data } ->
    let b = Bytes.create (1 + 4 + 1 + Bytes.length data) in
    Bytes.set b 0 '\003';
    Bytes.set_int32_le b 1 (Int32.of_int req_id);
    Bytes.set b 5 (if ok then '\001' else '\000');
    Bytes.blit data 0 b 6 (Bytes.length data);
    b

let of_bytes b =
  let len = Bytes.length b in
  if len < 1 then Error "empty message"
  else
    let i32 off = Int32.to_int (Bytes.get_int32_le b off) in
    let i64 off = Int64.to_int (Bytes.get_int64_le b off) in
    match Bytes.get b 0 with
    | '\001' ->
      if len < 17 then Error "short store header"
      else
        Ok
          (Store
             {
               export_id = i32 1;
               key = i32 5;
               offset = i64 9;
               data = Bytes.sub b 17 (len - 17);
             })
    | '\002' ->
      if len < 25 then Error "short fetch-request"
      else
        Ok
          (Fetch_request
             {
               req_id = i32 1;
               export_id = i32 5;
               key = i32 9;
               offset = i64 13;
               len = i32 21;
             })
    | '\003' ->
      if len < 6 then Error "short fetch-reply"
      else
        Ok
          (Fetch_reply
             {
               req_id = i32 1;
               ok = Bytes.get b 5 = '\001';
               data = Bytes.sub b 6 (len - 6);
             })
    | _ -> Error "unknown message tag"
