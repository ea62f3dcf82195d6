type observation = Baseline | Checkpoint | Final

(* An AS that ever left [Delivered]; troubled once lost at the baseline or
   at a checkpoint. *)
type outage = {
  mutable status : Fwd_walk.status;
  mutable since : float;
  mutable troubled : bool;
}

type outages = {
  ases : (int, outage) Hashtbl.t;
  mutable closed : (int * Fwd_walk.status * float * float) list;
      (* (asn, status, from, until), newest first *)
  mutable last_change : float option;
}

let outages () = { ases = Hashtbl.create 16; closed = []; last_change = None }
let delivered s = Fwd_walk.equal_status s Fwd_walk.Delivered

let observe t ~at observation asn status =
  let lost = not (delivered status) in
  let troubles =
    match observation with
    | Checkpoint ->
      t.last_change <- Some at;
      lost
    | Baseline -> lost
    | Final -> false
  in
  match Hashtbl.find_opt t.ases asn with
  | None ->
    if lost then
      Hashtbl.add t.ases asn { status; since = at; troubled = troubles }
  | Some o ->
    if not (Fwd_walk.equal_status o.status status) then begin
      if not (delivered o.status) then
        t.closed <- (asn, o.status, o.since, at) :: t.closed;
      o.status <- status;
      o.since <- at
    end;
    if troubles then o.troubled <- true

let count t f = Hashtbl.fold (fun _ o n -> if f o then n + 1 else n) t.ases 0
let transient t = count t (fun o -> o.troubled && delivered o.status)
let broken t = count t (fun o -> not (delivered o.status))

let windows t ~until =
  Hashtbl.fold
    (fun asn o acc ->
      if delivered o.status then acc
      else (asn, o.status, o.since, until) :: acc)
    t.ases t.closed
  |> List.sort (fun (a, _, from_a, _) (b, _, from_b, _) ->
         match Float.compare from_a from_b with 0 -> Int.compare a b | c -> c)

let last_change t = t.last_change

type outcome = {
  outages : outages;
  final : Fwd_walk.status array;
  checkpoints : int;
  last_status_change : float;
}

let transient_count o = transient o.outages

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

(* The first checkpoint is the baseline; the final one only corrects. *)
let run_guarded sim ?(interval = 0.02) ?(max_events = 50_000_000)
    ?(max_vtime = infinity) ?on_status ~probe () =
  let start = Sim.now sim in
  let outages = outages () in
  let checkpoints = ref 0 in
  let prev = ref [||] in
  let see observation ~changed v s =
    observe outages ~at:(Sim.now sim) observation v s;
    match on_status with Some f -> f ~changed v s | None -> ()
  in
  let note ~final statuses =
    incr checkpoints;
    if !checkpoints = 1 then Array.iteri (see Baseline ~changed:false) statuses
    (* A probe that returns the previous array itself (an engine's probe
       when no status moved: probe results are never mutated) changed
       nothing. Otherwise only the ASes whose status moved are seen. *)
    else if statuses != !prev then begin
      let see =
        if final then see Final ~changed:false else see Checkpoint ~changed:true
      in
      Array.iteri
        (fun v s -> if not (Fwd_walk.equal_status s !prev.(v)) then see v s)
        statuses
    end;
    prev := statuses
  in
  let verdict = watch sim ~interval ~max_events ~max_vtime ~probe ~note in
  ( {
      outages;
      final = !prev;
      checkpoints = !checkpoints;
      last_status_change = Option.value (last_change outages) ~default:start;
    },
    verdict )

let snapshot sim ~probe =
  let at = Sim.now sim in
  let outages = outages () in
  let final = probe () in
  Array.iteri (observe outages ~at Final) final;
  { outages; final; checkpoints = 1; last_status_change = at }
