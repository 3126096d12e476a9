module Rng = Utlb_sim.Rng

type access = { rel_page : int; npages : int; op : Record.op }

type t = { pages : int; gen : Rng.t -> access list }

let pages t = t.pages

let acc ?(npages = 1) ?(op = Record.Send) rel_page = { rel_page; npages; op }

let check_pages pages =
  if pages <= 0 then invalid_arg "Pattern: pages must be positive"

let sequential ?(npages = 1) ?(op = Record.Send) ~pages () =
  check_pages pages;
  if npages < 1 then invalid_arg "Pattern.sequential: npages must be >= 1";
  {
    pages;
    gen =
      (fun _rng ->
        let rec go p acc_list =
          if p >= pages then List.rev acc_list
          else
            go (p + npages)
              (acc ~npages:(min npages (pages - p)) ~op p :: acc_list)
        in
        go 0 []);
  }

let rec coprime_from n candidate =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  if gcd candidate n = 1 then candidate else coprime_from n (candidate + 1)

let strided ?(stride = 64) ?(pairs = false) ~pages () =
  check_pages pages;
  let stride = coprime_from pages (max 1 stride) in
  {
    pages;
    gen =
      (fun rng ->
        let offset = Rng.int rng pages in
        let events = ref [] in
        for j = 0 to pages - 1 do
          let p = ((j * stride) + offset) mod pages in
          events := acc p :: !events;
          if pairs then events := acc ~op:Record.Fetch p :: !events
        done;
        List.rev !events);
  }

let cyclic ~passes ?(npages = 1) ~pages () =
  check_pages pages;
  if passes < 1 then invalid_arg "Pattern.cyclic: passes must be >= 1";
  let one = sequential ~npages ~pages () in
  {
    pages;
    gen =
      (fun rng ->
        List.concat (List.init passes (fun _ -> one.gen rng)));
  }

let hot_cold ~hot_fraction ~hot_bias ~lookups ~pages =
  check_pages pages;
  if hot_fraction <= 0.0 || hot_fraction >= 1.0 then
    invalid_arg "Pattern.hot_cold: hot_fraction must be in (0, 1)";
  if hot_bias <= 0.0 || hot_bias >= 1.0 then
    invalid_arg "Pattern.hot_cold: hot_bias must be in (0, 1)";
  {
    pages;
    gen =
      (fun rng ->
        let hot_count = max 1 (int_of_float (hot_fraction *. float_of_int pages)) in
        let hot_start = Rng.int rng (max 1 (pages - hot_count)) in
        let cold_pos = ref 0 in
        let events = ref [] in
        for _ = 1 to lookups do
          if Rng.chance rng hot_bias then
            events := acc (hot_start + Rng.int rng hot_count) :: !events
          else begin
            let p = !cold_pos in
            cold_pos := (p + 1) mod pages;
            events := acc p :: !events
          end
        done;
        List.rev !events);
  }

let uniform_random ?(npages = 1) ~lookups ~pages () =
  check_pages pages;
  {
    pages;
    gen =
      (fun rng ->
        List.init lookups (fun _ ->
            let p = Rng.int rng pages in
            acc ~npages:(min npages (pages - p)) p));
  }

let concat parts =
  if parts = [] then invalid_arg "Pattern.concat: empty list";
  {
    pages = List.fold_left (fun m p -> max m p.pages) 0 parts;
    gen = (fun rng -> List.concat_map (fun p -> p.gen rng) parts);
  }

let repeat n p =
  if n < 1 then invalid_arg "Pattern.repeat: n must be >= 1";
  concat (List.init n (fun _ -> p))

let mix weighted ~lookups =
  if weighted = [] then invalid_arg "Pattern.mix: empty list";
  List.iter
    (fun (w, _) ->
      if w <= 0.0 then invalid_arg "Pattern.mix: weights must be positive")
    weighted;
  let total = List.fold_left (fun s (w, _) -> s +. w) 0.0 weighted in
  {
    pages = List.fold_left (fun m (_, p) -> max m p.pages) 0 weighted;
    gen =
      (fun rng ->
        (* Materialise each component as a cyclic cursor. *)
        let components =
          List.map
            (fun (w, p) ->
              let stream = Array.of_list (p.gen rng) in
              if Array.length stream = 0 then
                invalid_arg "Pattern.mix: component generated no accesses";
              (w, stream, ref 0))
            weighted
        in
        List.init lookups (fun _ ->
            let draw = Rng.float rng total in
            let rec pick acc_w = function
              | [] -> assert false
              | [ (_, stream, pos) ] -> (stream, pos)
              | (w, stream, pos) :: rest ->
                if draw < acc_w +. w then (stream, pos)
                else pick (acc_w +. w) rest
            in
            let stream, pos = pick 0.0 components in
            let a = stream.(!pos mod Array.length stream) in
            incr pos;
            a));
  }

let accesses t rng = t.gen rng

let to_trace ?(processes = 4) ?(mirror_fraction = 0.05) ?(mirror_npages = 2)
    ~seed t =
  let rng = Rng.create ~seed in
  let streams =
    Array.init processes (fun pid ->
        (* Same SPMD layout convention as the calibrated workloads:
           bases congruent modulo 16384 pages. *)
        let base = 65536 + (pid * 16384) in
        let child = Rng.split rng in
        let accesses = t.gen child in
        let s = Interleave.stream (List.length accesses) in
        List.iter
          (fun a ->
            Interleave.push s ~vpn:(base + a.rel_page) ~npages:a.npages ~op:a.op)
          accesses;
        s)
  in
  Interleave.merge rng ~mirror_fraction ~mirror_npages
    ~protocol_pid:(Utlb_mem.Pid.of_int processes)
    streams
