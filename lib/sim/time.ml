type t = int

let zero = 0

let of_ns n = n

(* [int_of_float] turns a NaN or an out-of-range float into an
   arbitrary int (infinity becomes 0), so a bad duration would schedule
   silently at the wrong instant. [-2^62 <= ns < 2^62] is exactly the
   range of a 63-bit int, and NaN fails both comparisons. *)
let of_us x =
  let ns = Float.round (x *. 1000.0) in
  if ns >= -0x1p62 && ns < 0x1p62 then int_of_float ns
  else invalid_arg (Printf.sprintf "Time.of_us: %g us is not a time" x)

let to_us t = float_of_int t /. 1000.0

let to_ms t = float_of_int t /. 1_000_000.0

let add (a : t) b = a + b

let sub (a : t) b = a - b

let compare = Int.compare

let ( + ) = add

let ( - ) = sub

let ( < ) (a : t) b = a < b

let ( <= ) (a : t) b = a <= b

let max (a : t) b = if a >= b then a else b

let pp ppf t = Format.fprintf ppf "%.3fus" (to_us t)
