open Utlb_sim

let us = Time.of_us

let test_time_conversions () =
  Alcotest.(check (float 1e-9)) "us roundtrip" 12.5 (Time.to_us (us 12.5));
  Alcotest.(check (float 1e-9)) "ms" 0.0125 (Time.to_ms (us 12.5));
  Alcotest.(check bool) "ordering" true Time.(us 1.0 < us 2.0);
  Alcotest.(check int) "add" (us 3.0) (Time.add (us 1.0) (us 2.0));
  Alcotest.(check int) "sub" (us 1.0) (Time.sub (us 3.0) (us 2.0));
  (* [int_of_float] would make infinity 0: a bad duration must raise. *)
  List.iter
    (fun x ->
      match Time.of_us x with
      | t -> Alcotest.failf "of_us %g gave %d" x t
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; 1e300; 0x1p53 ]

let test_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(us 3.0) (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:(us 1.0) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:(us 2.0) (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last event" 3.0
    (Time.to_us (Engine.now e))

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:(us 1.0) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cascading () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule e ~delay:(us 1.0) (fun () ->
         fired := "outer" :: !fired;
         ignore
           (Engine.schedule e ~delay:(us 1.0) (fun () ->
                fired := "inner" :: !fired))));
  Engine.run e;
  Alcotest.(check (list string)) "cascade" [ "outer"; "inner" ]
    (List.rev !fired);
  Alcotest.(check (float 1e-9)) "clock" 2.0 (Time.to_us (Engine.now e))

let test_zero_delay_runs_after_earlier () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:Time.zero (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~delay:Time.zero (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "zero-delay chain" [ "a"; "b" ] (List.rev !log)

let test_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule e ~delay:(us 1.0) (fun () -> fired := true) in
  Engine.cancel e id;
  (* double-cancel is a no-op *)
  Engine.cancel e id;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check int) "no pending" 0 (Engine.pending e)

let test_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:(us 1.0) (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:(us 5.0) (fun () -> log := 5 :: !log));
  Engine.run ~until:(us 2.0) e;
  Alcotest.(check (list int)) "only early events" [ 1 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock advanced to until" 2.0
    (Time.to_us (Engine.now e));
  Engine.run e;
  Alcotest.(check (list int)) "rest fires" [ 1; 5 ] (List.rev !log)

let test_past_schedule_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:(us 5.0) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:(us 1.0) (fun () -> ())))

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(Time.of_us (-1.0)) (fun () -> ())))

let test_step () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 3 do
    ignore (Engine.schedule e ~delay:(us 1.0) (fun () -> incr count))
  done;
  Alcotest.(check bool) "step fires one" true (Engine.step e);
  Alcotest.(check int) "one fired" 1 !count;
  Engine.run e;
  Alcotest.(check bool) "empty step" false (Engine.step e)

(* A seeded differential against a reference list ordered by (time,
   scheduling order). Random interleavings of [schedule] and
   [schedule_at] (with many equal timestamps), [cancel] of pending,
   fired and already-cancelled events, [step] and [run ~until]; a
   firing event schedules its children, some at zero delay. After
   every operation the firing order, [now] and [pending] must agree. *)
type spec = { label : int; delay : Time.t; children : spec list }

let test_differential () =
  let rng = Rng.create ~seed:0xE7E7L in
  let labels = ref 0 in
  let rec spec depth =
    let label = !labels in
    incr labels;
    let delay = Time.of_ns (1000 * Rng.pick rng [| 0; 0; 1; 2; 3; 5 |]) in
    let children =
      if depth < 2 && Rng.int rng 3 = 0 then
        List.init (1 + Rng.int rng 2) (fun _ -> spec (depth + 1))
      else []
    in
    { label; delay; children }
  in
  for round = 1 to 50 do
    let e = Engine.create () in
    let ids = Hashtbl.create 64 and fired = ref [] in
    let rec schedule ?at s =
      let action () =
        fired := s.label :: !fired;
        List.iter (fun c -> schedule c) s.children
      in
      Hashtbl.replace ids s.label
        (match at with
        | Some at -> Engine.schedule_at e ~at action
        | None -> Engine.schedule e ~delay:s.delay action)
    in
    (* The reference: pending (at, order, spec) in any order. *)
    let clock = ref Time.zero and order = ref 0 and queue = ref [] in
    let expected = ref [] in
    let model_schedule ~at s =
      queue := (at, !order, s) :: !queue;
      incr order
    in
    let model_next () =
      List.fold_left
        (fun best ((at, o, _) as ev) ->
          match best with
          | Some (at', o', _) when compare (at', o') (at, o) < 0 -> best
          | _ -> Some ev)
        None !queue
    in
    let model_fire (at, o, s) =
      queue := List.filter (fun (_, o', _) -> o' <> o) !queue;
      clock := at;
      expected := s.label :: !expected;
      List.iter (fun c -> model_schedule ~at:Time.(at + c.delay) c) s.children
    in
    let agree op =
      let ctx what = Printf.sprintf "round %d, %s: %s" round op what in
      Alcotest.(check (list int)) (ctx "firing order") (List.rev !expected)
        (List.rev !fired);
      Alcotest.(check int) (ctx "now") !clock (Engine.now e);
      Alcotest.(check int) (ctx "pending") (List.length !queue)
        (Engine.pending e)
    in
    let rec fire_while ok =
      match model_next () with
      | Some ((at, _, _) as ev) when ok at ->
        model_fire ev;
        fire_while ok
      | _ -> ()
    in
    for _ = 1 to 200 do
      match Rng.int rng 20 with
      | 0 | 1 | 2 | 3 | 4 ->
        let s = spec 0 in
        schedule s;
        model_schedule ~at:Time.(!clock + s.delay) s;
        agree "schedule"
      | 5 | 6 | 7 ->
        let s = spec 0 in
        let at = Time.(!clock + s.delay) in
        schedule ~at s;
        model_schedule ~at s;
        agree "schedule_at"
      | 8 | 9 | 10 ->
        let label = Rng.int rng (!labels + 1) in
        (match Hashtbl.find_opt ids label with
        | Some id ->
          Engine.cancel e id;
          queue := List.filter (fun (_, _, s) -> s.label <> label) !queue
        | None -> ());
        agree (Printf.sprintf "cancel %d" label)
      | 11 | 12 | 13 | 14 | 15 ->
        let model =
          match model_next () with
          | Some ev ->
            model_fire ev;
            true
          | None -> false
        in
        Alcotest.(check bool) "step fires iff one is pending" model
          (Engine.step e);
        agree "step"
      | _ ->
        let limit = Time.(!clock + of_ns (1000 * Rng.int rng 4)) in
        Engine.run ~until:limit e;
        fire_while (fun at -> Time.(at <= limit));
        clock := Time.max !clock limit;
        agree (Printf.sprintf "run ~until:%d" limit)
    done;
    Engine.run e;
    fire_while (fun _ -> true);
    agree "run"
  done

let suite =
  [
    Alcotest.test_case "time conversions" `Quick test_time_conversions;
    Alcotest.test_case "event ordering" `Quick test_event_order;
    Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
    Alcotest.test_case "cascading events" `Quick test_cascading;
    Alcotest.test_case "zero-delay chain" `Quick test_zero_delay_runs_after_earlier;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_run_until;
    Alcotest.test_case "past schedule rejected" `Quick test_past_schedule_rejected;
    Alcotest.test_case "negative delay rejected" `Quick test_negative_delay_rejected;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "differential against a reference" `Quick
      test_differential;
  ]
