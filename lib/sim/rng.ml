(* The SplitMix64 state lives in an 8-byte buffer read and written with
   [Bytes.get/set_int64_le], which ocamlopt compiles to unboxed loads
   and stores: a draw allocates no int64 box. A [mutable state : int64]
   field would box a fresh int64 on every store. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea & Flood 2014). *)
let[@inline always] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Advance the state and return the next output, inlined into each
   draw below so that the int64 never leaves a register. *)
let[@inline always] next t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix state

let next_int64 t = next t

let split t =
  let seed = next t in
  create ~seed

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let float t bound =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

(* [float t 1.0 < p] on the same draw, with no float returned to box:
   scaling by 1.0 is exact. *)
let chance t p =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0 < p

let bool t = Int64.logand (next t) 1L = 1L

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0, 1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
