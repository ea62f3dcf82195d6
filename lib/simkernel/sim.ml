type t = {
  mutable clock : float;
  heap : (t -> unit) Event_heap.t;
  rng : Random.State.t;
  mutable events_processed : int;
}

let create ?(seed = 0) () =
  {
    clock = 0.;
    heap = Event_heap.create ();
    rng = Random.State.make [| seed |];
    events_processed = 0;
  }

let now t = t.clock
let rng t = t.rng

let schedule t ~delay f =
  if Float.is_nan delay || delay < 0. then
    invalid_arg "Sim.schedule: negative or NaN delay";
  Event_heap.push t.heap ~time:(t.clock +. delay) f

let schedule_at t ~time f =
  if Float.is_nan time || time < t.clock then
    invalid_arg "Sim.schedule_at: time in the past";
  Event_heap.push t.heap ~time f

let step t =
  if Event_heap.is_empty t.heap then false
  else begin
    t.clock <- Event_heap.next_time t.heap;
    let f = Event_heap.take t.heap in
    t.events_processed <- t.events_processed + 1;
    f t;
    true
  end

(* Whether the earliest pending event is due at or before [until]; reads
   the heap without allocating an option per event. *)
let due t ~until =
  (not (Event_heap.is_empty t.heap)) && Event_heap.next_time t.heap <= until

let run ?(until = infinity) ?(max_events = max_int) t =
  let processed = ref 0 in
  while !processed < max_events && due t ~until do
    ignore (step t);
    incr processed
  done;
  (* virtual time passes even when nothing happens: advance the clock to
     the horizon so callers can step a simulation in fixed increments —
     but only when no pending event is due at or before the horizon
     (the loop may have stopped on [max_events] with work left; warping
     past it would make the next [step] run time backwards) *)
  if Float.is_finite until && t.clock < until && not (due t ~until) then
    t.clock <- until

type verdict = Converged | Event_budget_exhausted | Time_budget_exhausted

let verdict_name = function
  | Converged -> "converged"
  | Event_budget_exhausted -> "event-budget-exhausted"
  | Time_budget_exhausted -> "time-budget-exhausted"

let equal_verdict (a : verdict) b = a = b

let run_guarded ?(until = infinity) ?(max_events = max_int) t =
  let processed = ref 0 in
  let verdict = ref Converged in
  let continue = ref true in
  while !continue do
    if Event_heap.is_empty t.heap then continue := false
    else if Event_heap.next_time t.heap > until then begin
      verdict := Time_budget_exhausted;
      continue := false
    end
    else if !processed >= max_events then begin
      verdict := Event_budget_exhausted;
      continue := false
    end
    else begin
      ignore (step t);
      incr processed
    end
  done;
  !verdict

let pending t = Event_heap.size t.heap
let events_processed t = t.events_processed
