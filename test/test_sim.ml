(* Tests for the discrete-event simulation kernel. *)

(* --- Event_heap ------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:3. "c";
  Event_heap.push h ~time:1. "a";
  Event_heap.push h ~time:2. "b";
  let pop () = Option.get (Event_heap.pop_min h) in
  Alcotest.(check (pair (float 0.) string)) "first" (1., "a") (pop ());
  Alcotest.(check (pair (float 0.) string)) "second" (2., "b") (pop ());
  Alcotest.(check (pair (float 0.) string)) "third" (3., "c") (pop ());
  Alcotest.(check bool) "empty" true (Event_heap.pop_min h = None)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:1. i
  done;
  for i = 0 to 9 do
    match Event_heap.pop_min h with
    | Some (_, x) -> Alcotest.(check int) "fifo" i x
    | None -> Alcotest.fail "heap empty"
  done

let test_heap_nan_rejected () =
  let h = Event_heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time")
    (fun () -> Event_heap.push h ~time:Float.nan ())

let test_heap_peek () =
  let h = Event_heap.create () in
  Alcotest.(check bool) "empty peek" true (Event_heap.peek_time h = None);
  Event_heap.push h ~time:5. ();
  Alcotest.(check bool) "peek" true (Event_heap.peek_time h = Some 5.);
  Alcotest.(check int) "size" 1 (Event_heap.size h)

(* A popped payload must not stay reachable from the heap. Pushing times
   1, 5, 2 and popping twice moves the time-2 cell through the root into a
   slot past the end: a heap that leaves vacated slots as they are keeps
   it alive there, next to the still-queued time-5 event. The helpers are
   not inlined so no stack slot of the test holds a payload. *)
let[@inline never] push_tracked h weak i ~time =
  let payload = ref time in
  Weak.set weak i (Some payload);
  Event_heap.push h ~time payload

let[@inline never] pop_time h =
  match Event_heap.pop_min h with Some (t, _) -> t | None -> nan

let collected weak i =
  Gc.full_major ();
  not (Weak.check weak i)

let test_heap_releases_popped () =
  let h = Event_heap.create () in
  let weak = Weak.create 4 in
  push_tracked h weak 0 ~time:1.;
  push_tracked h weak 1 ~time:5.;
  push_tracked h weak 2 ~time:2.;
  Alcotest.(check (float 0.)) "first pop" 1. (pop_time h);
  Alcotest.(check (float 0.)) "second pop" 2. (pop_time h);
  Alcotest.(check bool) "first popped payload collectable" true
    (collected weak 0);
  Alcotest.(check bool) "queued payload alive" false (collected weak 1);
  Alcotest.(check bool) "second popped payload collectable" true
    (collected weak 2);
  Alcotest.(check (float 0.)) "queued event pops next" 5. (pop_time h);
  Alcotest.(check bool) "payload popped last collectable (heap empty)" true
    (collected weak 1);
  (* a single event, pushed into and popped out of an empty heap *)
  push_tracked h weak 3 ~time:0.;
  Alcotest.(check (float 0.)) "sole pop" 0. (pop_time h);
  Alcotest.(check bool) "sole payload collectable" true (collected weak 3);
  Alcotest.(check int) "empty" 0 (Event_heap.size h)

let prop_heap_sorts =
  Test_support.qtest "heap pops in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0. 100.))
    QCheck2.Print.(list float)
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> Event_heap.push h ~time:t ()) times;
      let rec drain last =
        match Event_heap.pop_min h with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain neg_infinity)

(* Model-based: interleaved pushes and pops, times drawn from four values
   so that ties are common, against a reference queue ordered by (time,
   insertion order). Every pop must return the reference's (time,
   payload); payloads are insertion indices. *)
type heap_op = Push of float | Pop

let prop_heap_model =
  Test_support.qtest ~count:300 "interleaved push/pop = (time, insertion) model"
    QCheck2.Gen.(
      list_size (int_range 0 300)
        (frequency
           [
             (3, map (fun k -> Push (float_of_int k)) (int_range 0 3));
             (2, pure Pop);
           ]))
    QCheck2.Print.(
      list (function Push t -> Printf.sprintf "push %g" t | Pop -> "pop"))
    (fun ops ->
      let h = Event_heap.create () in
      (* the model: pending (time, index) pairs, kept sorted *)
      let model = ref [] and next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | Push time ->
            Event_heap.push h ~time !next;
            model := List.merge compare !model [ (time, !next) ];
            incr next;
            Event_heap.size h = List.length !model
          | Pop -> (
            let got = Event_heap.pop_min h in
            match !model with
            | [] -> got = None
            | top :: rest ->
              model := rest;
              got = Some top))
        ops
      && List.for_all (fun top -> Event_heap.pop_min h = Some top) !model
      && Event_heap.is_empty h)

(* --- Sim -------------------------------------------------------------- *)

let test_sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2. (fun _ -> log := "b" :: !log);
  Sim.schedule sim ~delay:1. (fun s ->
      log := "a" :: !log;
      Sim.schedule s ~delay:0.5 (fun _ -> log := "a2" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 2. (Sim.now sim);
  Alcotest.(check int) "events" 3 (Sim.events_processed sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "fired" 5 !fired;
  Alcotest.(check int) "pending" 5 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "all fired" 10 !fired

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Sim.schedule: negative or NaN delay") (fun () ->
      Sim.schedule sim ~delay:(-1.) (fun _ -> ()))

let test_sim_schedule_at_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5. (fun s ->
      try
        Sim.schedule_at s ~time:1. (fun _ -> ());
        Alcotest.fail "expected failure"
      with Invalid_argument _ -> ());
  Sim.run sim

(* Regression: [run ~until] must not warp the clock past pending events
   when a [max_events] budget stops the run early. The old code set the
   clock to [until] unconditionally, so a subsequent [run] would have
   processed the remaining events "in the past". *)
let test_sim_no_clock_warp_on_budget () =
  let sim = Sim.create () in
  let times = ref [] in
  for i = 1 to 3 do
    Sim.schedule sim ~delay:(float_of_int i) (fun s ->
        times := Sim.now s :: !times)
  done;
  Sim.run ~until:10. ~max_events:1 sim;
  Alcotest.(check (float 1e-9)) "clock at last processed event" 1. (Sim.now sim);
  Alcotest.(check int) "two events still pending" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "remaining events at their own times"
    [ 1.; 2.; 3. ] (List.rev !times);
  Alcotest.(check (float 1e-9)) "final clock" 3. (Sim.now sim)

let test_run_guarded_converged () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  let v = Sim.run_guarded sim in
  Alcotest.(check string) "verdict" "converged" (Sim.verdict_name v);
  Alcotest.(check int) "all fired" 5 !fired;
  Alcotest.(check bool) "equal_verdict" true
    (Sim.equal_verdict v Sim.Converged)

let test_run_guarded_time_budget () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr fired)
  done;
  let v = Sim.run_guarded ~until:5.5 sim in
  Alcotest.(check string) "verdict" "time-budget-exhausted"
    (Sim.verdict_name v);
  Alcotest.(check int) "only due events fired" 5 !fired;
  Alcotest.(check int) "rest pending" 5 (Sim.pending sim);
  (* the clock stayed at the last processed event, not at [until] *)
  Alcotest.(check (float 1e-9)) "clock" 5. (Sim.now sim)

let test_run_guarded_event_budget () =
  (* a self-rescheduling tick never quiesces: without the event budget
     this run would never return *)
  let sim = Sim.create () in
  let rec tick s =
    Sim.schedule s ~delay:1. tick
  in
  Sim.schedule sim ~delay:1. tick;
  let v = Sim.run_guarded ~max_events:100 sim in
  Alcotest.(check string) "verdict" "event-budget-exhausted"
    (Sim.verdict_name v);
  Alcotest.(check int) "stopped at the budget" 100 (Sim.events_processed sim);
  Alcotest.(check int) "tick still pending" 1 (Sim.pending sim)

let test_sim_deterministic_rng () =
  let draw seed =
    let sim = Sim.create ~seed () in
    Random.State.float (Sim.rng sim) 1.
  in
  Alcotest.(check (float 0.)) "same seed" (draw 9) (draw 9);
  Alcotest.(check bool) "different seed" true (draw 9 <> draw 10)

(* The determinism contract in sim.mli rests on two kernel invariants:
   same-timestamp events fire in schedule order (FIFO ties, inherited
   from Event_heap but re-checked through the Sim API), and the
   processed/pending accounting stays exact under any interleaving of
   schedule, step and bounded run calls. *)

let prop_sim_fifo_same_time =
  Test_support.qtest "same-timestamp events fire in schedule order"
    QCheck2.Gen.(list_size (int_range 1 120) (int_range 0 3))
    QCheck2.Print.(list int)
    (fun buckets ->
      (* few distinct times over many events: ties are the common case *)
      let sim = Sim.create () in
      let log = ref [] in
      List.iteri
        (fun i b ->
          Sim.schedule sim
            ~delay:(float_of_int b /. 10.)
            (fun _ -> log := (b, i) :: !log))
        buckets;
      Sim.run sim;
      let fired = List.rev !log in
      let expected =
        (* stable sort by time keeps schedule order within each tie *)
        List.stable_sort
          (fun (b1, _) (b2, _) -> compare b1 b2)
          (List.mapi (fun i b -> (b, i)) buckets)
      in
      fired = expected)

type sim_op = Op_schedule of int | Op_step | Op_run_until of int

let print_sim_op = function
  | Op_schedule b -> Printf.sprintf "schedule(%d)" b
  | Op_step -> "step"
  | Op_run_until b -> Printf.sprintf "run_until(+%d)" b

let prop_sim_counters_consistent =
  Test_support.qtest
    "events_processed + pending = scheduled under any interleaving"
    QCheck2.Gen.(
      list_size (int_range 1 80)
        (oneof
           [
             map (fun b -> Op_schedule b) (int_range 0 20);
             return Op_step;
             map (fun b -> Op_run_until b) (int_range 0 10);
           ]))
    QCheck2.Print.(list print_sim_op)
    (fun ops ->
      let sim = Sim.create () in
      let scheduled = ref 0 in
      let ok = ref true in
      let last_now = ref (Sim.now sim) in
      let check () =
        ok :=
          !ok
          && Sim.events_processed sim + Sim.pending sim = !scheduled
          && Sim.now sim >= !last_now;
        last_now := Sim.now sim
      in
      List.iter
        (fun op ->
          (match op with
          | Op_schedule b ->
            (* schedule relative to now: never in the past *)
            Sim.schedule sim ~delay:(float_of_int b /. 7.) (fun _ -> ());
            incr scheduled
          | Op_step -> ignore (Sim.step sim)
          | Op_run_until b ->
            Sim.run ~until:(Sim.now sim +. (float_of_int b /. 3.)) sim);
          check ())
        ops;
      Sim.run sim;
      check ();
      !ok && Sim.pending sim = 0 && Sim.events_processed sim = !scheduled)

(* --- Sessions: FIFO links with U[10 ms, 20 ms] delays ------------------ *)

let test_channel_delay_bounds () =
  let sim, _, send, received = Test_support.session_pair ~seed:3 () in
  send 1;
  Sim.run sim;
  match received () with
  | [ (1, at) ] ->
    Alcotest.(check bool)
      (Printf.sprintf "delay %.4f in [0.010, 0.020]" at)
      true
      (at >= 0.010 && at <= 0.020)
  | _ -> Alcotest.fail "expected one message"

let test_channel_fifo () =
  (* send many messages back-to-back; each draws an independent delay but
     delivery order must match send order *)
  let sim, core, send, received = Test_support.session_pair ~seed:11 () in
  for i = 1 to 100 do
    send i
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" (List.init 100 (fun i -> i + 1))
    (List.map fst (received ()));
  Alcotest.(check int) "sent count" 100
    (Session_core.counters core).Counters.announcements

let test_channel_fifo_across_time () =
  (* the second message, sent 1 ms later, may draw a delay more than 1 ms
     smaller; it then arrives just after the first *)
  let pushed = ref 0 in
  for seed = 0 to 49 do
    let sim, _, send, received = Test_support.session_pair ~seed () in
    send 1;
    Sim.schedule sim ~delay:0.001 (fun _ -> send 2);
    Sim.run sim;
    match received () with
    | [ (1, a); (2, b) ] -> if b -. a < 1e-6 then incr pushed
    | _ -> Alcotest.fail "expected 1 then 2"
  done;
  Alcotest.(check bool) "some second message pushed back" true (!pushed > 0)

let prop_channel_never_reorders =
  Test_support.qtest "channel preserves order for any send schedule"
    QCheck2.Gen.(
      tup2 small_nat (list_size (int_range 1 30) (float_range 0. 0.05)))
    QCheck2.Print.(tup2 int (list float))
    (fun (seed, gaps) ->
      let sim, _, send, received = Test_support.session_pair ~seed () in
      let t = ref 0. in
      List.iteri
        (fun i gap ->
          t := !t +. gap;
          Sim.schedule_at sim ~time:!t (fun _ -> send i))
        gaps;
      Sim.run sim;
      List.map fst (received ()) = List.init (List.length gaps) Fun.id)

let () =
  Alcotest.run "simkernel"
    [
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "nan rejected" `Quick test_heap_nan_rejected;
          Alcotest.test_case "peek/size" `Quick test_heap_peek;
          Alcotest.test_case "popped payloads collectable" `Quick
            test_heap_releases_popped;
          prop_heap_sorts;
          prop_heap_model;
        ] );
      ( "sim",
        [
          Alcotest.test_case "schedule order" `Quick test_sim_schedule_order;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "schedule_at past" `Quick test_sim_schedule_at_past;
          Alcotest.test_case "deterministic rng" `Quick test_sim_deterministic_rng;
          Alcotest.test_case "no clock warp on budget" `Quick
            test_sim_no_clock_warp_on_budget;
          Alcotest.test_case "guarded: converged" `Quick
            test_run_guarded_converged;
          Alcotest.test_case "guarded: time budget" `Quick
            test_run_guarded_time_budget;
          Alcotest.test_case "guarded: event budget" `Quick
            test_run_guarded_event_budget;
          prop_sim_fifo_same_time;
          prop_sim_counters_consistent;
        ] );
      ( "channel",
        [
          Alcotest.test_case "delay bounds" `Quick test_channel_delay_bounds;
          Alcotest.test_case "fifo burst" `Quick test_channel_fifo;
          Alcotest.test_case "fifo across time" `Quick test_channel_fifo_across_time;
          prop_channel_never_reorders;
        ] );
    ]
