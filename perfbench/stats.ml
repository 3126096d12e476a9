(* Order statistics over per-rep samples, and a log-bucketed histogram
   for per-call timings that are too many to keep one by one. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Linear interpolation between closest ranks (Hyndman-Fan type 7). *)
let quantile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = p *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

type summary = {
  n : int;
  median : float;
  p25 : float;
  p75 : float;
  tail : (float * float) option;
      (** The highest percentile with at least ten samples beyond it
          (1 - 10/n), and its value, when that is above p75. *)
}

let summarize values =
  let sorted = Array.of_list values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let p = 1. -. (10. /. float_of_int n) in
  let tail = if p > 0.75 then Some (p, quantile sorted p) else None in
  {
    n;
    median = quantile sorted 0.5;
    p25 = quantile sorted 0.25;
    p75 = quantile sorted 0.75;
    tail;
  }

let median values = (summarize values).median

(* Per-call timings: 16 sub-buckets per power of two, so a quantile is
   within ~3% of the true sample. *)
module Histogram = struct
  let sub_bits = 4

  type t = { counts : int array; mutable n : int; mutable sum : int }

  let create () = { counts = Array.make (64 lsl sub_bits) 0; n = 0; sum = 0 }

  let bucket v =
    if v < 1 lsl sub_bits then max v 0
    else
      let msb = ref 0 in
      let x = ref v in
      while !x > 1 do
        x := !x lsr 1;
        incr msb
      done;
      let shift = !msb - sub_bits in
      ((shift + 1) lsl sub_bits) + ((v lsr shift) land ((1 lsl sub_bits) - 1))

  (* Midpoint of the bucket's value range. *)
  let value_of b =
    if b < 1 lsl sub_bits then float_of_int b
    else
      let shift = (b lsr sub_bits) - 1 in
      let base = ((1 lsl sub_bits) lor (b land ((1 lsl sub_bits) - 1))) lsl shift in
      float_of_int base +. (float_of_int ((1 lsl shift) - 1) /. 2.)

  let add t v =
    let b = bucket v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v

  let count t = t.n

  let total t = t.sum

  let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

  let quantile t p =
    if t.n = 0 then 0.
    else
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
      let rec go b seen =
        let seen = seen + t.counts.(b) in
        if seen >= rank || b = Array.length t.counts - 1 then value_of b
        else go (b + 1) seen
      in
      go 0 0
end
