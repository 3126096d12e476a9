(* A fault plan: the declarative half of the injection plane. A plan
   only states *what* can go wrong and how often; the seeded random
   choices happen in [Injector]. Plans are plain data so they can be
   parsed from the command line, linted by utlbcheck, and shipped to
   worker domains without sharing mutable state. *)

type t = {
  dma_fail : float;
  dma_retries : int;
  dma_backoff_us : float;
  cache_invalidate : float;
  table_swap : float;
  irq_timeout : float;
  irq_retries : int;
}

let empty =
  {
    dma_fail = 0.0;
    dma_retries = 3;
    dma_backoff_us = 2.0;
    cache_invalidate = 0.0;
    table_swap = 0.0;
    irq_timeout = 0.0;
    irq_retries = 2;
  }

let is_empty t =
  t.dma_fail = 0.0 && t.cache_invalidate = 0.0 && t.table_swap = 0.0
  && t.irq_timeout = 0.0

(* Exponential backoff paid after [attempts] failed tries:
   base * (2^attempts - 1), the classic doubling series, in floats: an
   int [1 lsl attempts] wraps negative from 62 attempts on. *)
let backoff_us t ~attempts =
  if attempts <= 0 then 0.0
  else t.dma_backoff_us *. (Float.ldexp 1.0 attempts -. 1.0)

(* Spec grammar: comma- or semicolon-separated KEY=VALUE pairs, e.g.
     dma-fail=0.05,dma-retries=3,cache-invalidate=0.01
   Unknown keys and malformed values are syntax errors; range problems
   (probability outside [0,1], budgets or durations out of range) are
   reported by [validate] so the linter can list them all with UC17x
   codes. *)

(* A [Count] carries the largest budget it accepts: [backoff_us]
   doubles per DMA retry, and 2^1024 is already infinite. *)
type field = Prob of (t -> float) * (t -> float -> t)
           | Count of int * (t -> int) * (t -> int -> t)
           | Micros of (t -> float) * (t -> float -> t)

let max_dma_retries = 1023

(* The longest backoff step a plan may name: 1,000 s of simulated
   time, far past any modelled fault and far inside the 2^62 ns that
   [Time.of_us] accepts. *)
let max_duration_us = 1e9

let fields =
  [
    ( "dma-fail",
      Prob ((fun t -> t.dma_fail), fun t v -> { t with dma_fail = v }) );
    ( "dma-retries",
      Count
        ( max_dma_retries,
          (fun t -> t.dma_retries),
          fun t v -> { t with dma_retries = v } ) );
    ( "dma-backoff-us",
      Micros
        ((fun t -> t.dma_backoff_us), fun t v -> { t with dma_backoff_us = v })
    );
    ( "cache-invalidate",
      Prob
        ( (fun t -> t.cache_invalidate),
          fun t v -> { t with cache_invalidate = v } ) );
    ( "table-swap",
      Prob ((fun t -> t.table_swap), fun t v -> { t with table_swap = v }) );
    ( "irq-timeout",
      Prob ((fun t -> t.irq_timeout), fun t v -> { t with irq_timeout = v }) );
    ( "irq-retries",
      Count
        ( max_int,
          (fun t -> t.irq_retries),
          fun t v -> { t with irq_retries = v } ) );
  ]

let keys = List.map fst fields

let parse spec =
  let chunks =
    String.split_on_char ',' (String.map (function ';' -> ',' | c -> c) spec)
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if chunks = [] then Error "empty fault spec"
  else
    List.fold_left
      (fun acc chunk ->
        match acc with
        | Error _ -> acc
        | Ok t -> (
          match String.index_opt chunk '=' with
          | None ->
            Error
              (Printf.sprintf "fault spec: expected KEY=VALUE, got %S" chunk)
          | Some i -> (
            let key = String.trim (String.sub chunk 0 i) in
            let value =
              String.trim
                (String.sub chunk (i + 1) (String.length chunk - i - 1))
            in
            match List.assoc_opt key fields with
            | None ->
              Error
                (Printf.sprintf
                   "fault spec: unknown fault class %S (expected one of %s)"
                   key (String.concat ", " keys))
            | Some (Prob (_, set) | Micros (_, set)) -> (
              match float_of_string_opt value with
              | Some v -> Ok (set t v)
              | None ->
                Error
                  (Printf.sprintf "fault spec: %s=%S is not a number" key
                     value))
            | Some (Count (_, _, set)) -> (
              match int_of_string_opt value with
              | Some v -> Ok (set t v)
              | None ->
                Error
                  (Printf.sprintf "fault spec: %s=%S is not an integer" key
                     value)))))
      (Ok empty) chunks

(* Range problems, one (key, complaint) pair each, for UC17x lints.
   The float checks are written so that NaN fails them. *)
let validate t =
  List.concat_map
    (fun (key, field) ->
      match field with
      | Prob (get, _) ->
        let v = get t in
        if v >= 0.0 && v <= 1.0 then []
        else [ (key, Printf.sprintf "probability %g outside [0,1]" v) ]
      | Count (most, get, _) ->
        let v = get t in
        if v < 0 then [ (key, Printf.sprintf "negative retry budget %d" v) ]
        else if v > most then
          [ (key, Printf.sprintf "retry budget %d above %d" v most) ]
        else []
      | Micros (get, _) ->
        let v = get t in
        if v < 0.0 then [ (key, Printf.sprintf "negative duration %gus" v) ]
        else if v <= max_duration_us then []
        else
          [
            ( key,
              Printf.sprintf "duration %gus is not finite or above %gus" v
                max_duration_us );
          ])
    fields

let of_string spec =
  match parse spec with
  | Error _ as e -> e
  | Ok t -> (
    match validate t with
    | [] -> Ok t
    | (key, problem) :: _ ->
      Error (Printf.sprintf "fault spec: %s: %s" key problem))

let to_string t =
  let prob name v = if v > 0.0 then Some (Printf.sprintf "%s=%g" name v) else None in
  List.filter_map Fun.id
    [
      prob "dma-fail" t.dma_fail;
      (if t.dma_fail > 0.0 then
         Some (Printf.sprintf "dma-retries=%d" t.dma_retries)
       else None);
      (if t.dma_fail > 0.0 then
         Some (Printf.sprintf "dma-backoff-us=%g" t.dma_backoff_us)
       else None);
      prob "cache-invalidate" t.cache_invalidate;
      prob "table-swap" t.table_swap;
      prob "irq-timeout" t.irq_timeout;
      (if t.irq_timeout > 0.0 then
         Some (Printf.sprintf "irq-retries=%d" t.irq_retries)
       else None);
    ]
  |> String.concat ","
  |> function "" -> "none" | s -> s
