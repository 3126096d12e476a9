module Counter = struct
  type t = { name : string; mutable value : int }

  let create name = { name; value = 0 }

  let name t = t.name

  let incr t = t.value <- t.value + 1

  let add t n = t.value <- t.value + n

  let value t = t.value

  let reset t = t.value <- 0
end

module Summary = struct
  type t = {
    name : string;
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min_v : float;
    mutable max_v : float;
    mutable total : float;
  }

  let create name =
    { name; count = 0; mean = 0.0; m2 = 0.0; min_v = nan; max_v = nan; total = 0.0 }

  let name t = t.name

  let observe t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.count = 1 then begin
      t.min_v <- x;
      t.max_v <- x
    end
    else begin
      if x < t.min_v then t.min_v <- x;
      if x > t.max_v then t.max_v <- x
    end

  let count t = t.count

  let mean t = if t.count = 0 then 0.0 else t.mean

  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int t.count

  let stddev t = sqrt (variance t)

  let min t = if t.count = 0 then 0.0 else t.min_v

  let max t = if t.count = 0 then 0.0 else t.max_v

  let m2 t = t.m2

  let total t = t.total

  let reset t =
    t.count <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.min_v <- nan;
    t.max_v <- nan;
    t.total <- 0.0

  let pp ppf t =
    if t.count = 0 then Format.fprintf ppf "%s: (empty)" t.name
    else
      Format.fprintf ppf "%s: n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f"
        t.name t.count (mean t) (stddev t) t.min_v t.max_v
end

module Histogram = struct
  type t = {
    name : string;
    bucket_width : float;
    counts : int array; (* last slot is the overflow bucket *)
    mutable total : int;
  }

  let create ~name ~bucket_width ~buckets =
    if bucket_width <= 0.0 then
      invalid_arg "Stats.Histogram.create: bucket_width must be positive";
    if buckets <= 0 then
      invalid_arg "Stats.Histogram.create: buckets must be positive";
    { name; bucket_width; counts = Array.make (buckets + 1) 0; total = 0 }

  let n_buckets t = Array.length t.counts - 1

  let observe_bucket t i =
    let i = if i < 0 then 0 else if i >= n_buckets t then n_buckets t else i in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1

  let observe t x = observe_bucket t (int_of_float (Float.floor (x /. t.bucket_width)))

  let count t = t.total

  let bucket t i =
    if i < 0 || i > n_buckets t then
      invalid_arg "Stats.Histogram.bucket: index out of range";
    t.counts.(i)

  let percentile t p =
    if t.total = 0 then invalid_arg "Stats.Histogram.percentile: empty";
    if p < 0.0 || p > 100.0 then
      invalid_arg "Stats.Histogram.percentile: p out of range";
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.total)) in
    let rank = if rank < 1 then 1 else rank in
    let rec scan i seen =
      let seen = seen + t.counts.(i) in
      if seen >= rank || i = n_buckets t then
        t.bucket_width *. float_of_int (i + 1)
      else scan (i + 1) seen
    in
    scan 0 0

  let quantile t q =
    if t.total = 0 then 0.0
    else
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      percentile t (q *. 100.0)

  let name t = t.name

  let bucket_width t = t.bucket_width

  let buckets t = n_buckets t

  let pp ppf t =
    Format.fprintf ppf "%s: n=%d" t.name t.total;
    Array.iteri
      (fun i c ->
        if c > 0 then
          if i = n_buckets t then Format.fprintf ppf " [overflow]=%d" c
          else
            Format.fprintf ppf " [%.1f-%.1f)=%d"
              (t.bucket_width *. float_of_int i)
              (t.bucket_width *. float_of_int (i + 1))
              c)
      t.counts
end
