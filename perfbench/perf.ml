(* Host-time benchmark of the simulator: one workload per process.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--trace-out FILE] [--smoke]

   The process sets the workload up, checks an independently verified
   run of it, runs one untimed warm-up rep and then timed reps, closed
   loop, until [--seconds] have passed. Each rep's simulated output is
   hashed and compared with the checked run and, for the seeds listed
   in perfbench/digests.txt, with the stored digest.

   With --trace 0 it prints the end-to-end metrics. With --trace 1 it
   times untraced reps for half of [--seconds] and traced reps (spans
   from this benchmark's own code, per-call histograms) for the other
   half, runs the layer microbenchmarks (layers.exe) and prints the
   per-layer block. Both print failed_frac, the share of ops that
   failed. The last line of stdout is one JSON object: correct,
   attempted, failed, metrics.
   --smoke runs a single short rep and exits 1 unless the output is
   correct. *)

module Report = Utlb.Report

type options = {
  workload : Workload.t;
  seed : int;
  seconds : float;
  trace : bool;
  trace_out : string option;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
    \            [--trace-out FILE] [--smoke]\n\
     workloads: paper-replay pin-pressure observed-sweep vmmc-stores";
  exit 2

let default_seed = Int64.to_int Utlb.Sim_driver.default_seed

let parse_options () =
  let workload = ref None and seed = ref default_seed and seconds = ref 28.
  and trace = ref false and trace_out = ref None and smoke = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: name :: rest ->
      (match Workload.find name with
      | Some w -> workload := Some w
      | None -> usage ());
      go rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      go rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some s when s >= 0. -> seconds := s
      | Some _ | None -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      go rest
    | "--trace-out" :: path :: rest ->
      trace_out := Some path;
      go rest
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some workload ->
    { workload; seed = !seed; seconds = (if !smoke then 0. else !seconds);
      trace = !trace; trace_out = !trace_out; smoke = !smoke }

let digests_path = "perfbench/digests.txt"

(* Lines of [workload seed md5-hex]; [#] starts a comment. *)
let stored_digest ~workload ~seed =
  In_channel.with_open_text digests_path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; s; d ] when w = workload && s = string_of_int seed -> Some d
         | _ -> None)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:nan

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let print_summary name unit_ (s : Stats.summary) =
  Printf.printf "  %-22s median %-12.6g p25 %-12.6g p75 %-12.6g %s n %d  [%s]\n"
    name s.median s.p25 s.p75
    (match s.tail with
    | Some (p, v) -> Printf.sprintf "p%d %-12.6g" (truncate (100. *. p)) v
    | None -> "")
    s.n unit_

(* ------------------------------------------------------------------ *)
(* Reps                                                                *)

type check = {
  expected : string;  (** Output every rep must reproduce. *)
  digest : string;
  mutable ok : bool;  (** Reference and stored digest agree. *)
  mutable problems : string list;
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable samples : (Workload.meter * Workload.rep) list;  (** Newest first. *)
}

let run_rep (instance : Workload.instance) check tally =
  let meter = { Workload.ns = 0; words = 0. } in
  let rep = Span.with_ "rep" (fun () -> instance.rep meter) in
  let good = check.ok && String.equal rep.output check.expected in
  if not (String.equal rep.output check.expected) then
    check.problems <- "a rep's output differs from the checked output" :: check.problems;
  tally.attempted <- tally.attempted + rep.attempted;
  tally.failed <- tally.failed + (if good then rep.lost else rep.attempted);
  tally.samples <- (meter, rep) :: tally.samples

(* Timed reps while the next one, taking as long as the last, ends
   within [seconds], and at least [min_reps]; [between] runs, untimed,
   after each rep. *)
let run_reps ?(between = ignore) instance check ~seconds ~min_reps =
  let tally = { attempted = 0; failed = 0; samples = [] } in
  let t0 = Stats.now_ns () and last = ref 0 in
  while
    List.length tally.samples < min_reps
    || float_of_int (Stats.now_ns () - t0 + !last) < seconds *. 1e9
  do
    let r0 = Stats.now_ns () in
    run_rep instance check tally;
    between ();
    last := Stats.now_ns () - r0
  done;
  tally

let wall_s (meter : Workload.meter) = float_of_int meter.ns /. 1e9

let walls tally = List.map (fun (m, _) -> wall_s m) tally.samples

(* One set-up and its host seconds. *)
let set_up (w : Workload.t) ~seed =
  let t0 = Stats.now_ns () in
  let instance = w.setup ~seed in
  (instance, float_of_int (Stats.now_ns () - t0) /. 1e9)

(* The reference output, checked against the stored digest, and the
   warm-up rep, which must reproduce it. *)
let establish o (instance : Workload.instance) =
  let workload = o.workload.name in
  let reference = Option.map (fun f -> f ()) instance.reference in
  let warm_meter = { Workload.ns = 0; words = 0. } in
  let warm = instance.rep warm_meter in
  let expected = Option.value ~default:warm.output reference in
  let digest = Digest.to_hex (Digest.string expected) in
  let check = { expected; digest; ok = true; problems = [] } in
  if not (String.equal warm.output expected) then begin
    check.ok <- false;
    check.problems <- "warm-up output differs from the checked run" :: check.problems
  end;
  if warm.lost > 0 then begin
    check.ok <- false;
    check.problems <-
      Printf.sprintf "warm-up lost or corrupted %d ops" warm.lost :: check.problems
  end;
  (match stored_digest ~workload ~seed:o.seed with
  | Some d when not (String.equal d digest) ->
    check.ok <- false;
    check.problems <-
      Printf.sprintf "digest %s, stored %s" digest d :: check.problems
  | Some _ | None -> ());
  check

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

(* The first set-up is the instance the reps use. One more follows each
   timed rep, so the set-up samples see the same host conditions over
   the run as the reps do. *)
let end_to_end o =
  let instance, first = set_up o.workload ~seed:o.seed in
  let setups = ref [ first ] in
  let check = establish o instance in
  let tally =
    run_reps instance check ~seconds:o.seconds ~min_reps:(if o.smoke then 1 else 5)
      ~between:(fun () -> setups := snd (set_up o.workload ~seed:o.seed) :: !setups)
  in
  let rates =
    List.map
      (fun ((m : Workload.meter), (r : Workload.rep)) ->
        float_of_int (r.attempted - r.lost) /. wall_s m)
      tally.samples
  in
  let words = List.fold_left (fun acc ((m : Workload.meter), _) -> acc +. m.words) 0. tally.samples in
  let wall = Stats.summarize (walls tally) in
  let rate = Stats.summarize rates in
  let setup = Stats.summarize !setups in
  Printf.printf "%s  seed %d  digest %s  (one warm-up rep untimed)\n"
    o.workload.name o.seed check.digest;
  print_summary "setup_s" "s" setup;
  print_summary "wall_s" "s" wall;
  print_summary "ops_per_s" "1/s" rate;
  ( check,
    tally,
    [
      metric "setup_s" "s" setup.median;
      metric "wall_s" "s" wall.median;
      metric "ops_per_s" "1/s" rate.median;
      metric "alloc_words_per_op" "words" (words /. float_of_int tally.attempted);
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
    ] )

(* ------------------------------------------------------------------ *)
(* Traced run and the layer block                                      *)

let span_layers =
  [ "setup"; "workload"; "rep"; "trace.generate"; "engine.create"; "replay";
    "engine.report"; "exp.runner"; "exp.emit"; "sim.run" ]

(* Host ns of one [Monotonic_clock.now] pair: the bias in every
   per-call timing. *)
let clock_ns () =
  let h = Stats.Histogram.create () in
  for _ = 1 to 100_000 do
    let t0 = Stats.now_ns () in
    Stats.Histogram.add h (Stats.now_ns () - t0)
  done;
  Stats.Histogram.quantile h 0.5

let generate_all_ms ~seed =
  let samples =
    List.init 3 (fun _ ->
        let w0 = Workload.minor_words () in
        let t0 = Stats.now_ns () in
        List.iter
          (fun (spec : Utlb_trace.Workloads.spec) ->
            ignore (spec.generate ~seed:(Int64.of_int seed)))
          Utlb_trace.Workloads.all;
        (float_of_int (Stats.now_ns () - t0) /. 1e6, Workload.minor_words () -. w0))
  in
  (Stats.median (List.map fst samples), snd (List.hd samples))

(* The layer microbenchmarks, run by layers.exe beside this
   executable: [(name, ns, words)] per op. *)
let layer_suite ~quota =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "layers.exe" in
  let ic =
    Unix.open_process_args_in exe [| exe; string_of_float quota; Workload.grid_path |]
  in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> failwith (exe ^ " failed"));
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; ns; words ] -> Some (name, float_of_string ns, float_of_string words)
      | _ -> None)
    lines

let price micro name =
  match List.find_opt (fun (n, _, _) -> n = name) micro with
  | Some (_, ns, _) -> ns
  | None -> invalid_arg ("no microbenchmark " ^ name)

(* Modelled host ns of the calls' work: each Report counter priced at
   the microbench of the structure op that does it. *)
let explained_ns micro (r : Report.t) extra =
  let c = price micro and f = float_of_int in
  (f r.lookups *. c "bitvec.all_set")
  +. (f r.ni_page_accesses *. c "ni_cache.lookup")
  +. (f r.ni_page_misses *. (c "ni_cache.insert" +. c "miss_classifier.classify"))
  +. (f r.entries_fetched *. c "translation_table.read_burst32" /. 32.)
  +. (f r.pages_pinned
     *. ((c "host_memory.pin_unpin_16" /. 16.) +. c "translation_table.install"))
  +. (f r.unpin_calls *. c "replacement.evict_insert")
  +. (f (max 0 (r.check_misses - r.pin_calls)) *. c "host_memory.pin_full")
  +. List.fold_left (fun acc (name, count) -> acc +. (count *. c name)) 0. extra

let per_lookup (r : Report.t) n =
  if r.lookups = 0 then 0. else float_of_int n /. float_of_int r.lookups

let traced o =
  let w = o.workload in
  Span.enabled := true;
  let instance = Span.with_ "setup" (fun () -> w.setup ~seed:o.seed) in
  Span.enabled := false;
  let check = establish o instance in
  let half = o.seconds /. 2. and min_reps = if o.smoke then 1 else 3 in
  let gc0 = Gc.quick_stat () in
  let plain = run_reps instance check ~seconds:half ~min_reps in
  let gc1 = Gc.quick_stat () in
  Span.enabled := true;
  let tracedr =
    Span.with_ "workload" ~detail:w.name (fun () ->
        run_reps instance check ~seconds:half ~min_reps)
  in
  Span.enabled := false;
  let extras = instance.layer_extras ~expected:check.expected in
  let plain_reps = float_of_int (List.length plain.samples) in
  let last_report = (snd (List.hd plain.samples)).Workload.report in
  let traced_ops =
    List.fold_left (fun n (_, (r : Workload.rep)) -> n + r.attempted) 0 tracedr.samples
  in
  Gc.compact ();
  let generate_ms, generate_words = generate_all_ms ~seed:o.seed in
  let clock = clock_ns () in
  let micro = layer_suite ~quota:(if o.smoke then 0.01 else 0.2) in
  let calls = Workload.calls in
  let measured =
    float_of_int (Stats.Histogram.total calls.hist)
    -. (clock *. float_of_int (Stats.Histogram.count calls.hist))
  in
  let explained = explained_ns micro calls.work calls.extra in
  let self = Span.self_by_name () in
  let self_total = Hashtbl.fold (fun _ ns acc -> acc + ns) self 0 in
  let self_frac name =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt self name))
    /. float_of_int (max 1 self_total)
  in
  let trace_out =
    match o.trace_out with
    | Some path -> path
    | None ->
      (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
      Printf.sprintf "perfbench/out/%s.trace.json" w.name
  in
  Span.write_chrome trace_out;
  let r = last_report in
  let layer =
    List.concat_map
      (fun (name, ns, words) ->
        [ metric (name ^ "_ns") "ns" ns; metric (name ^ "_words") "words" words ])
      micro
    @ [
        metric "trace.generate_ms" "ms" generate_ms;
        metric "trace.generate_words" "words" generate_words;
        metric "tracing.overhead_frac" "frac"
          ((Stats.median (walls tracedr) /. Stats.median (walls plain)) -. 1.);
        metric "tracing.clock_ns" "ns" clock;
        metric "call.ns_p50" "ns" (Stats.Histogram.quantile calls.hist 0.5);
        metric "call.ns_p99" "ns" (Stats.Histogram.quantile calls.hist 0.99);
        metric "call.ns_mean" "ns" (Stats.Histogram.mean calls.hist);
        metric "gc.minor_collections_per_rep" "count"
          (float_of_int (gc1.minor_collections - gc0.minor_collections) /. plain_reps);
        metric "gc.major_collections_per_rep" "count"
          (float_of_int (gc1.major_collections - gc0.major_collections) /. plain_reps);
        metric "ops.check_miss_per_lookup" "count" (per_lookup r r.check_misses);
        metric "ops.ni_miss_pages_per_lookup" "count" (per_lookup r r.ni_page_misses);
        metric "ops.pin_pages_per_lookup" "count" (per_lookup r r.pages_pinned);
        metric "ops.unpin_calls_per_lookup" "count" (per_lookup r r.unpin_calls);
        metric "ops.entries_fetched_per_lookup" "count" (per_lookup r r.entries_fetched);
        metric "sim.events_per_op" "count"
          (Option.value ~default:0. (List.assoc_opt "sim.schedule_step" calls.extra)
          /. float_of_int (max 1 traced_ops));
        metric "accounting.explained_frac" "frac" (explained /. measured);
        metric "accounting.residual_ns_per_lookup" "ns"
          ((measured -. explained) /. float_of_int (max 1 calls.work.lookups));
        metric "exp.parallel_eff" "frac"
          (Option.value ~default:0. (List.assoc_opt "exp.parallel_eff" extras));
        metric "obs.overhead_frac" "frac"
          (Option.value ~default:0. (List.assoc_opt "obs.overhead_frac" extras));
      ]
    @ List.map (fun name -> metric ("span." ^ name ^ ".self_frac") "frac" (self_frac name)) span_layers
  in
  Printf.printf "%s  seed %d  digest %s  traced reps %d  untraced reps %d\n"
    w.name o.seed check.digest (List.length tracedr.samples) (List.length plain.samples);
  Printf.printf "  spans written to %s\n" trace_out;
  Printf.printf "  accounting: %.1f%% of %.0f ns per lookup explained by layer ops, \
                 residual %.0f ns\n"
    (100. *. explained /. measured)
    (measured /. float_of_int (max 1 calls.work.lookups))
    ((measured -. explained) /. float_of_int (max 1 calls.work.lookups));
  let merged =
    { attempted = plain.attempted + tracedr.attempted;
      failed = plain.failed + tracedr.failed; samples = [] }
  in
  (check, merged, layer)

(* ------------------------------------------------------------------ *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          metrics))

(* A run that raises (a sanitizer violation, a failing cell) reports
   itself failed rather than dying without a result. *)
let () =
  let o = parse_options () in
  match if o.trace then traced o else end_to_end o with
  | exception e ->
    Printf.printf "  CHECK FAILED: %s\n" (Printexc.to_string e);
    result_line ~correct:false ~attempted:1 ~failed:1 [];
    exit 1
  | check, tally, metrics ->
    List.iter
      (fun m -> Printf.printf "  %-40s %16.6g %s\n" m.name m.value m.unit_)
      metrics;
    Printf.printf "  %-40s %16.6g (%d of %d ops)\n" "failed_frac"
      (float_of_int tally.failed /. float_of_int (max 1 tally.attempted))
      tally.failed tally.attempted;
    List.iter
      (fun p -> Printf.printf "  CHECK FAILED: %s\n" p)
      (List.rev check.problems);
    let correct = check.problems = [] && tally.failed = 0 in
    result_line ~correct ~attempted:tally.attempted ~failed:tally.failed metrics;
    if o.smoke && not correct then exit 1
