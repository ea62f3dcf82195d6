type outcome = {
  transient : bool array;
  final : Fwd_walk.status array;
  checkpoints : int;
  converged_at : float;
  last_status_change : float;
}

let transient_count o =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 o.transient

let watch sim ~interval ~max_events ~max_vtime ~probe ~note =
  if interval <= 0. then invalid_arg "Transient.watch: non-positive interval";
  note ~final:false (probe ());
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
      else if processed > 0 && Sim.pending sim > 0 then
        (* nothing happened, nothing changed: skip the redundant probe *)
        note ~final:false (probe ())
    end
  done;
  note ~final:true (probe ());
  !verdict

(* The transient set as a fold over [watch]'s checkpoints: the first one is
   the baseline, the final one only fixes [final] (it never moves
   [last_status_change] or the troubled set — historical semantics). *)
let run_guarded sim ?(interval = 0.02) ?(max_events = 50_000_000)
    ?(max_vtime = infinity) ?on_status ~probe () =
  let checkpoints = ref 0 in
  let troubled = ref [||] in
  let prev = ref [||] in
  let final = ref [||] in
  let last_status_change = ref (Sim.now sim) in
  let observe ~changed v s =
    if not (Fwd_walk.equal_status s Fwd_walk.Delivered) then
      !troubled.(v) <- true;
    match on_status with Some f -> f ~changed v s | None -> ()
  in
  let note ~final:is_final statuses =
    incr checkpoints;
    if !checkpoints = 1 then begin
      (* baseline snapshot: every AS's status at the observation start,
         reported unchanged so observers can seed their state *)
      troubled := Array.make (Array.length statuses) false;
      Array.iteri (observe ~changed:false) statuses;
      prev := statuses
    end;
    if is_final then begin
      (* report the final probe's deltas as unchanged corrections so
         observers still see the end state of every AS *)
      (match on_status with
      | Some f when statuses != !prev ->
        Array.iteri
          (fun v s ->
            if not (Fwd_walk.equal_status s !prev.(v)) then
              f ~changed:false v s)
          statuses
      | Some _ | None -> ());
      final := statuses
    end
    (* A probe that returns the previous array itself (an engine's probe
       when no status moved: probe results are never mutated) changed
       nothing. Otherwise only the ASes whose status moved can become
       troubled: an unchanged non-delivered AS was marked when it changed
       (or at the baseline). *)
    else if statuses != !prev then begin
      let any = ref false in
      Array.iteri
        (fun v s ->
          if not (Fwd_walk.equal_status s !prev.(v)) then begin
            any := true;
            observe ~changed:true v s
          end)
        statuses;
      if !any then last_status_change := Sim.now sim;
      prev := statuses
    end
  in
  let verdict = watch sim ~interval ~max_events ~max_vtime ~probe ~note in
  let transient =
    Array.mapi
      (fun v bad -> bad && Fwd_walk.equal_status !final.(v) Fwd_walk.Delivered)
      !troubled
  in
  ( {
      transient;
      final = !final;
      checkpoints = !checkpoints;
      converged_at = Sim.now sim;
      last_status_change = !last_status_change;
    },
    verdict )
