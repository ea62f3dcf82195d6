(* Heap payloads: [2 p] is the integer event [p] for [handler], [2 id +
   1] the callback [id] in [callbacks], removed when it runs. *)
type t = {
  mutable clock : float;
  heap : Event_heap.t;
  rng : Random.State.t;
  mutable events_processed : int;
  mutable handler : int -> unit;
  callbacks : (int, t -> unit) Hashtbl.t;
  mutable next_callback : int;
}

let no_handler _ = invalid_arg "Sim: no event handler installed"

let create ?(seed = 0) () =
  {
    clock = 0.;
    heap = Event_heap.create ();
    rng = Random.State.make [| seed |];
    events_processed = 0;
    handler = no_handler;
    callbacks = Hashtbl.create 16;
    next_callback = 0;
  }

let now t = t.clock
let rng t = t.rng

let on_event t handler =
  if t.handler != no_handler then
    invalid_arg "Sim.on_event: handler already installed";
  t.handler <- handler

let check_time t ~op time =
  if Float.is_nan time || time < t.clock then
    invalid_arg ("Sim." ^ op ^ ": time in the past")

let schedule_event t ~time p =
  check_time t ~op:"schedule_event" time;
  if p < 0 then invalid_arg "Sim.schedule_event: negative event";
  Event_heap.push t.heap ~time (2 * p)

let push_callback t ~time f =
  let id = t.next_callback in
  t.next_callback <- id + 1;
  Hashtbl.replace t.callbacks id f;
  Event_heap.push t.heap ~time ((2 * id) + 1)

let schedule t ~delay f =
  if Float.is_nan delay || delay < 0. then
    invalid_arg "Sim.schedule: negative or NaN delay";
  push_callback t ~time:(t.clock +. delay) f

let schedule_at t ~time f =
  check_time t ~op:"schedule_at" time;
  push_callback t ~time f

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    t.clock <- Event_heap.next_time t.heap;
    let k = Event_heap.take t.heap in
    t.events_processed <- t.events_processed + 1;
    if k land 1 = 0 then t.handler (k lsr 1)
    else begin
      let f = Hashtbl.find t.callbacks (k lsr 1) in
      Hashtbl.remove t.callbacks (k lsr 1);
      f t
    end;
    true
  end

type verdict = Converged | Event_budget_exhausted | Time_budget_exhausted

let verdict_name = function
  | Converged -> "converged"
  | Event_budget_exhausted -> "event-budget-exhausted"
  | Time_budget_exhausted -> "time-budget-exhausted"

let equal_verdict (a : verdict) b = a = b

(* Whether the earliest pending event is due at or before [until]; reads
   the heap without allocating an option per event. *)
let due t ~until =
  (not (Event_heap.is_empty t.heap)) && Event_heap.next_time t.heap <= until

let run_guarded ?(until = infinity) ?(max_events = max_int) t =
  let processed = ref 0 in
  while !processed < max_events && due t ~until do
    ignore (step t);
    incr processed
  done;
  if Event_heap.is_empty t.heap then Converged
  else if Event_heap.next_time t.heap > until then Time_budget_exhausted
  else Event_budget_exhausted

let run ?(until = infinity) ?max_events t =
  ignore (run_guarded ~until ?max_events t : verdict);
  (* virtual time passes even when nothing happens: advance the clock to
     the horizon so callers can step a simulation in fixed increments —
     but only when no pending event is due at or before the horizon
     (the loop may have stopped on [max_events] with work left; warping
     past it would make the next [step] run time backwards) *)
  if Float.is_finite until && t.clock < until && not (due t ~until) then
    t.clock <- until

let pending t = Event_heap.size t.heap
let events_processed t = t.events_processed
