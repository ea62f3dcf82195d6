(* Tests for the discrete-event simulation kernel. *)

(* --- Event_heap ------------------------------------------------------ *)

(* [Event_heap.next_time] and [take] in one call; [None] when empty. *)
let pop_min h =
  if Event_heap.is_empty h then None
  else
    let time = Event_heap.next_time h in
    Some (time, Event_heap.take h)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:3. 2;
  Event_heap.push h ~time:1. 0;
  Event_heap.push h ~time:2. 1;
  let pop () = Option.get (pop_min h) in
  Alcotest.(check (pair (float 0.) int)) "first" (1., 0) (pop ());
  Alcotest.(check (pair (float 0.) int)) "second" (2., 1) (pop ());
  Alcotest.(check (pair (float 0.) int)) "third" (3., 2) (pop ());
  Alcotest.(check bool) "empty" true (pop_min h = None)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  for i = 0 to 9 do
    Event_heap.push h ~time:1. i
  done;
  for i = 0 to 9 do
    match pop_min h with
    | Some (_, x) -> Alcotest.(check int) "fifo" i x
    | None -> Alcotest.fail "heap empty"
  done

let test_heap_nan_rejected () =
  let h = Event_heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time")
    (fun () -> Event_heap.push h ~time:Float.nan 0)

let test_heap_peek () =
  let h = Event_heap.create () in
  Alcotest.check_raises "empty peek"
    (Invalid_argument "Event_heap.next_time: empty heap") (fun () ->
      ignore (Event_heap.next_time h : float));
  Event_heap.push h ~time:5. 0;
  Alcotest.(check (float 0.)) "peek" 5. (Event_heap.next_time h);
  Alcotest.(check int) "size" 1 (Event_heap.size h)

(* A callback that has run must not stay reachable from the queue: the
   heap holds ints, and the simulation's table of pending callbacks must
   let go of a taken one. Scheduling times 1, 5, 2 and stepping twice
   takes two callbacks while the time-5 one is still queued. The helpers
   are not inlined so no stack slot of the test holds a payload. *)
let[@inline never] schedule_tracked sim weak i ~time =
  let payload = ref time in
  Weak.set weak i (Some payload);
  Sim.schedule_at sim ~time (fun _ -> payload := !payload +. 1.)

let[@inline never] step_time sim =
  if Sim.step sim then Sim.now sim else nan

let collected weak i =
  Gc.full_major ();
  not (Weak.check weak i)

let test_heap_releases_popped () =
  let sim = Sim.create () in
  let weak = Weak.create 4 in
  schedule_tracked sim weak 0 ~time:1.;
  schedule_tracked sim weak 1 ~time:5.;
  schedule_tracked sim weak 2 ~time:2.;
  Alcotest.(check (float 0.)) "first step" 1. (step_time sim);
  Alcotest.(check (float 0.)) "second step" 2. (step_time sim);
  Alcotest.(check bool) "first taken payload collectable" true
    (collected weak 0);
  Alcotest.(check bool) "queued payload alive" false (collected weak 1);
  Alcotest.(check bool) "second taken payload collectable" true
    (collected weak 2);
  Alcotest.(check (float 0.)) "queued event runs next" 5. (step_time sim);
  Alcotest.(check bool) "payload taken last collectable (queue empty)" true
    (collected weak 1);
  (* a single event, scheduled into and taken out of an empty queue *)
  schedule_tracked sim weak 3 ~time:6.;
  Alcotest.(check (float 0.)) "sole step" 6. (step_time sim);
  Alcotest.(check bool) "sole payload collectable" true (collected weak 3);
  Alcotest.(check int) "empty" 0 (Sim.pending sim)

let prop_heap_sorts =
  Test_support.qtest "heap pops in nondecreasing time order"
    QCheck2.Gen.(list_size (int_range 1 200) (float_range 0. 100.))
    QCheck2.Print.(list float)
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> Event_heap.push h ~time:t 0) times;
      let rec drain last =
        match pop_min h with
        | None -> true
        | Some (t, _) -> t >= last && drain t
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
            let got = pop_min h in
            match !model with
            | [] -> got = None
            | top :: rest ->
              model := rest;
              got = Some top))
        ops
      && List.for_all (fun top -> pop_min h = Some top) !model
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
    QCheck2.Gen.(list_size (int_range 1 120) (pair (int_range 0 3) bool))
    QCheck2.Print.(list (pair int bool))
    (fun events ->
      (* few distinct times over many events: ties are the common case;
         callbacks and integer events interleave *)
      let sim = Sim.create () in
      let log = ref [] in
      let fired i = log := (fst (List.nth events i), i) :: !log in
      Sim.on_event sim fired;
      List.iteri
        (fun i (b, int_event) ->
          let delay = float_of_int b /. 10. in
          if int_event then Sim.schedule_event sim ~time:delay i
          else Sim.schedule sim ~delay (fun _ -> fired i))
        events;
      Sim.run sim;
      let fired = List.rev !log in
      let expected =
        (* stable sort by time keeps schedule order within each tie *)
        List.stable_sort
          (fun (b1, _) (b2, _) -> compare b1 b2)
          (List.mapi (fun i (b, _) -> (b, i)) events)
      in
      fired = expected)

let test_sim_event_handler () =
  let sim = Sim.create () in
  Alcotest.check_raises "no handler"
    (Invalid_argument "Sim: no event handler installed") (fun () ->
      Sim.schedule_event sim ~time:0. 0;
      ignore (Sim.step sim : bool));
  let got = ref [] in
  Sim.on_event sim (fun p -> got := (p, Sim.now sim) :: !got);
  Alcotest.check_raises "installed once"
    (Invalid_argument "Sim.on_event: handler already installed") (fun () ->
      Sim.on_event sim ignore);
  Alcotest.check_raises "negative event"
    (Invalid_argument "Sim.schedule_event: negative event") (fun () ->
      Sim.schedule_event sim ~time:1. (-1));
  Sim.schedule_event sim ~time:2. 7;
  Sim.schedule_event sim ~time:1. 3;
  Sim.run sim;
  Alcotest.(check (list (pair int (float 0.))))
    "by time" [ (3, 1.); (7, 2.) ] (List.rev !got);
  Alcotest.check_raises "past"
    (Invalid_argument "Sim.schedule_event: time in the past") (fun () ->
      Sim.schedule_event sim ~time:1. 0)

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

(* Every directed edge of the diamond at once: sends at random times from
   random senders to random slots arrive, edge by edge, in send order. *)
let prop_edge_fifo =
  Test_support.qtest "per-edge FIFO under random send schedules"
    QCheck2.Gen.(
      tup2 small_nat
        (list_size (int_range 1 60)
           (tup3 (float_range 0. 0.03) (int_range 0 4) (int_range 0 2))))
    QCheck2.Print.(tup2 int (list (tup3 float int int)))
    (fun (seed, sends) ->
      let topo = Test_support.diamond () in
      let sim = Sim.create ~seed () in
      let core =
        Session_core.create ~mrai_base:0. ~detect_delay:0. ~trace:Trace.null
          ~who:"Test" ~blank:(-1) sim topo
      in
      let got = ref [] in
      Session_core.on_receive core (fun ~src ~dst ~slot:_ m ->
          got := ((src, dst), m) :: !got);
      let t = ref 0. and sent = ref [] in
      List.iteri
        (fun i (gap, src, k) ->
          t := !t +. gap;
          let slot = k mod Topology.degree topo src in
          let dst = fst (Topology.neighbors topo src).(slot) in
          sent := ((src, dst), i) :: !sent;
          Sim.schedule_at sim ~time:!t (fun _ ->
              Session_core.send core ~src ~slot ~kind:`Announce i))
        sends;
      Sim.run sim;
      let on edge l =
        List.filter_map (fun (e, m) -> if e = edge then Some m else None) l
      in
      List.length !got = List.length sends
      && List.for_all
           (fun (edge, _) -> on edge (List.rev !got) = on edge (List.rev !sent))
           !sent)

(* A delivered message is not kept alive by the session core's queues. *)
let[@inline never] send_tracked core weak ~src =
  let m = ref 0 in
  Weak.set weak 0 (Some m);
  Session_core.send core ~src ~slot:0 ~kind:`Announce m

let test_delivered_collectable () =
  let topo = Test_support.chain 2 in
  let sim = Sim.create () in
  let core =
    Session_core.create ~mrai_base:0. ~detect_delay:0. ~trace:Trace.null
      ~who:"Test" ~blank:(ref 0) sim topo
  in
  let weak = Weak.create 1 and delivered = ref 0 in
  Session_core.on_receive core (fun ~src:_ ~dst:_ ~slot:_ _ -> incr delivered);
  send_tracked core weak ~src:(Test_support.vtx topo 1);
  Alcotest.(check bool) "in flight: alive" false (collected weak 0);
  Sim.run sim;
  Alcotest.(check int) "delivered" 1 !delivered;
  Alcotest.(check bool) "delivered: collectable" true (collected weak 0)

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
          Alcotest.test_case "integer events" `Quick test_sim_event_handler;
        ] );
      ( "channel",
        [
          Alcotest.test_case "delay bounds" `Quick test_channel_delay_bounds;
          Alcotest.test_case "fifo burst" `Quick test_channel_fifo;
          Alcotest.test_case "fifo across time" `Quick test_channel_fifo_across_time;
          prop_channel_never_reorders;
          prop_edge_fifo;
          Alcotest.test_case "delivered messages collectable" `Quick
            test_delivered_collectable;
        ] );
    ]
