let page_shift = 12

let page_size = 1 lsl page_shift

let pages_per_mb = (1 lsl 20) / page_size

let max_limit_mb = max_int / pages_per_mb

(* Refuse rather than wrap: [mb * 256] past [max_limit_mb] wraps, and
   2^55 MB wraps to exactly 0 pages. *)
let pages_of_mb mb =
  if mb < 0 then
    invalid_arg (Printf.sprintf "memory limit of %d MB is negative" mb);
  if mb > max_limit_mb then
    invalid_arg
      (Printf.sprintf
         "memory limit of %d MB is more 4 KB pages than an int holds (at \
          most %d MB)"
         mb max_limit_mb);
  mb * pages_per_mb

module Vaddr = struct
  type t = int

  let of_int n =
    if n < 0 then invalid_arg "Vaddr.of_int: negative address";
    n

  let to_int t = t

  let page t = t lsr page_shift

  let offset t = t land (page_size - 1)

  let of_page ?(offset = 0) vpn =
    if vpn < 0 then invalid_arg "Vaddr.of_page: negative page";
    if offset < 0 || offset >= page_size then
      invalid_arg "Vaddr.of_page: offset outside page";
    (vpn lsl page_shift) lor offset

  let add t n = of_int (t + n)

  let compare = Int.compare

  let equal = Int.equal

  let pp ppf t = Format.fprintf ppf "v:0x%x" t
end

module Paddr = struct
  type t = int

  let of_int n =
    if n < 0 then invalid_arg "Paddr.of_int: negative address";
    n

  let to_int t = t

  let frame t = t lsr page_shift

  let of_frame ?(offset = 0) pfn =
    if pfn < 0 then invalid_arg "Paddr.of_frame: negative frame";
    if offset < 0 || offset >= page_size then
      invalid_arg "Paddr.of_frame: offset outside page";
    (pfn lsl page_shift) lor offset

  let compare = Int.compare

  let equal = Int.equal

  let pp ppf t = Format.fprintf ppf "p:0x%x" t
end

let pages_spanned va ~bytes =
  if bytes < 0 then invalid_arg "Addr.pages_spanned: negative length";
  if bytes = 0 then 0
  else
    let first = Vaddr.page va in
    let last = Vaddr.page (Vaddr.add va (bytes - 1)) in
    last - first + 1
