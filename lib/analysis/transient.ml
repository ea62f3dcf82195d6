type outcome = {
  transient : bool array;
  final : Fwd_walk.status array;
  checkpoints : int;
  converged_at : float;
  last_status_change : float;
}

let transient_count o =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 o.transient

(* Shared monitor core: drive the simulation in [interval]-sized slices,
   probing the forwarding plane after every slice in which events fired,
   until the queue drains or a budget runs out. Returns the verdict
   alongside the outcome; [run] keeps the historical raising behaviour on
   top of it. *)
let run_watched sim ~interval ~max_events ~max_vtime ~on_status ~probe =
  if interval <= 0. then invalid_arg "Transient.run: non-positive interval";
  let first = probe () in
  let n = Array.length first in
  let troubled = Array.make n false in
  let prev = ref first in
  let last_status_change = ref (Sim.now sim) in
  let mark_troubled statuses =
    Array.iteri
      (fun v s ->
        if not (Fwd_walk.equal_status s Fwd_walk.Delivered) then
          troubled.(v) <- true)
      statuses
  in
  (* A probe that returns the previous array itself (an engine's cached
     walk: probe results are never mutated) changed nothing, and its
     troubled ASes are already marked. *)
  let note statuses =
    if statuses != !prev then begin
      mark_troubled statuses;
      (* change detection: with an observer, report each AS whose status
         moved since the previous checkpoint (the exact per-AS deltas the
         aggregate below is computed from); without one, keep the
         historical short-circuiting comparison *)
      (match on_status with
      | None ->
        if not (Array.for_all2 Fwd_walk.equal_status statuses !prev) then
          last_status_change := Sim.now sim
      | Some f ->
        let any = ref false in
        Array.iteri
          (fun v s ->
            if not (Fwd_walk.equal_status s !prev.(v)) then begin
              any := true;
              f ~changed:true v s
            end)
          statuses;
        if !any then last_status_change := Sim.now sim);
      prev := statuses
    end
  in
  (* baseline snapshot: every AS's status at the observation start, before
     any checkpoint — reported unchanged so observers can seed their state *)
  (match on_status with
  | Some f -> Array.iteri (fun v s -> f ~changed:false v s) first
  | None -> ());
  mark_troubled first;
  let checkpoints = ref 1 in
  let events_budget = ref max_events in
  let verdict = ref Sim.Converged in
  while Sim.pending sim > 0 && !verdict = Sim.Converged do
    if Sim.now sim >= max_vtime then verdict := Sim.Time_budget_exhausted
    else begin
      let upto = Float.min (Sim.now sim +. interval) max_vtime in
      let before = Sim.events_processed sim in
      Sim.run ~until:upto ~max_events:(max 0 !events_budget) sim;
      let processed = Sim.events_processed sim - before in
      events_budget := !events_budget - processed;
      if !events_budget <= 0 && Sim.pending sim > 0 then
        verdict := Sim.Event_budget_exhausted
      else if processed > 0 && Sim.pending sim > 0 then begin
        (* nothing happened, nothing changed: skip the redundant probe *)
        note (probe ());
        incr checkpoints
      end
    end
  done;
  let final = probe () in
  incr checkpoints;
  (* the final probe is not a [note]d checkpoint (it never moves
     [last_status_change] or the troubled set — historical semantics);
     report its deltas as unchanged corrections so observers still see the
     end state of every AS *)
  (match on_status with
  | Some f when final != !prev ->
    Array.iteri
      (fun v s ->
        if not (Fwd_walk.equal_status s !prev.(v)) then f ~changed:false v s)
      final
  | Some _ | None -> ());
  let transient =
    Array.mapi
      (fun v bad -> bad && Fwd_walk.equal_status final.(v) Fwd_walk.Delivered)
      troubled
  in
  ( {
      transient;
      final;
      checkpoints = !checkpoints;
      converged_at = Sim.now sim;
      last_status_change = !last_status_change;
    },
    !verdict )

let run_guarded sim ?(interval = 0.02) ?(max_events = 50_000_000)
    ?(max_vtime = infinity) ?on_status ~probe () =
  run_watched sim ~interval ~max_events ~max_vtime ~on_status ~probe

let run sim ?(interval = 0.02) ?(max_events = 50_000_000) ~probe () =
  let outcome, verdict =
    run_watched sim ~interval ~max_events ~max_vtime:infinity ~on_status:None
      ~probe
  in
  match verdict with
  | Sim.Converged -> outcome
  | Sim.Event_budget_exhausted | Sim.Time_budget_exhausted ->
    failwith "Transient.run: event budget exceeded (non-convergence?)"
