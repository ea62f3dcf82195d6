(* Convergence-timeline reconstruction. The status-event protocol this
   relies on (see Runner): a baseline Status for every AS at the event
   instant with [changed = false]; a Status with [changed = true] for each
   AS whose delivery status differs at a monitor checkpoint; and final
   corrections with [changed = false] at a later vtime for ASes whose
   status moved between the last checkpoint and the final probe. The
   Runner's own aggregates ignore final corrections for troubled/recovery
   bookkeeping and use them for the end state — so do we, which is what
   makes the reconstruction exact. *)

type window = { asn : int; status : string; from_t : float; until_t : float }

type t = {
  engine : string;
  event_time : float;
  converged_at : float;
  first_loss : float option;
  last_decision : float option;
  convergence_delay : float;
  recovery_delay : float;
  transient_count : int;
  broken_after : int;
  windows : window list;
  loop_windows : window list;
  dropped_as_seconds : float;
  decisions : int;
  enqueued_announcements : int;
  enqueued_withdrawals : int;
  deliveries : int;
  drops : int;
  mrai_deferrals : int;
  recolorings : int;
}

let delivered = "delivered"

type as_state = {
  mutable status : string;
  mutable since : float;  (* when the current status began *)
  mutable troubled : bool;  (* non-delivered at baseline or a checkpoint *)
}

let of_events events =
  let engine = ref "" in
  let event_time = ref 0. in
  let saw_injection = ref false in
  let converged_at = ref 0. in
  let saw_final = ref false in
  let first_loss = ref None in
  let last_decision = ref None in
  let last_status_change = ref None in
  let decisions = ref 0 in
  let announces = ref 0 in
  let withdraws = ref 0 in
  let deliveries = ref 0 in
  let drops = ref 0 in
  let deferrals = ref 0 in
  let recolorings = ref 0 in
  let ases : (int, as_state) Hashtbl.t = Hashtbl.create 64 in
  let windows = ref [] in
  let close_window asn st ~at =
    if st.status <> delivered then
      windows := { asn; status = st.status; from_t = st.since; until_t = at }
                 :: !windows
  in
  let note_status asn status ~vtime ~changed =
    if status <> delivered && !first_loss = None then first_loss := Some vtime;
    match Hashtbl.find_opt ases asn with
    | None ->
        Hashtbl.replace ases asn
          { status; since = vtime; troubled = changed && status <> delivered }
    | Some st ->
        if st.status <> status then begin
          close_window asn st ~at:vtime;
          st.status <- status;
          st.since <- vtime
        end;
        if changed && status <> delivered then st.troubled <- true
  in
  List.iter
    (fun (e : Trace.event) ->
      (match e.kind with
      | Trace.Phase "events-injected" ->
          event_time := e.vtime;
          saw_injection := true;
          engine := e.engine
      | Trace.Phase "final" ->
          converged_at := e.vtime;
          saw_final := true
      | Trace.Phase _ -> if !engine = "" then engine := e.engine
      | Trace.Decision _ ->
          incr decisions;
          last_decision := Some e.vtime
      | Trace.Status { status; changed } -> (
          if changed then last_status_change := Some e.vtime;
          match e.loc with
          | Trace.Node asn ->
              (* baseline snapshots at the event instant count toward the
                 troubled set exactly like checkpoint changes do *)
              let counts = changed || (!saw_injection && e.vtime = !event_time) in
              note_status asn status ~vtime:e.vtime ~changed:counts
          | Trace.Net | Trace.Link _ -> ())
      | Trace.Enqueue { msg = Trace.Announce; _ } -> incr announces
      | Trace.Enqueue { msg = Trace.Withdraw; _ } -> incr withdraws
      | Trace.Deliver -> incr deliveries
      | Trace.Drop -> incr drops
      | Trace.Mrai_defer _ -> incr deferrals
      | Trace.Recolor _ -> incr recolorings
      | Trace.Mrai_flush _ | Trace.Session_reset | Trace.Session_up
      | Trace.Scenario_event _ ->
          ());
      if not !saw_final then converged_at := Float.max !converged_at e.vtime)
    events;
  (* close windows still open at the end of the run *)
  Hashtbl.iter (fun asn st -> close_window asn st ~at:!converged_at) ases;
  let windows =
    List.sort
      (fun a b ->
        match compare a.from_t b.from_t with 0 -> compare a.asn b.asn | c -> c)
      !windows
  in
  let transient_count, broken_after =
    Hashtbl.fold
      (fun _ st (tr, br) ->
        let final_ok = st.status = delivered in
        ( (if st.troubled && final_ok then tr + 1 else tr),
          if final_ok then br else br + 1 ))
      ases (0, 0)
  in
  {
    engine = !engine;
    event_time = !event_time;
    converged_at = !converged_at;
    first_loss = !first_loss;
    last_decision = !last_decision;
    convergence_delay =
      (match !last_decision with
      | Some t -> Float.max 0. (t -. !event_time)
      | None -> 0.);
    recovery_delay =
      (match !last_status_change with
      | Some t -> Float.max 0. (t -. !event_time)
      | None -> 0.);
    transient_count;
    broken_after;
    windows;
    loop_windows = List.filter (fun (w : window) -> w.status = "looped") windows;
    dropped_as_seconds =
      List.fold_left (fun acc w -> acc +. (w.until_t -. w.from_t)) 0. windows;
    decisions = !decisions;
    enqueued_announcements = !announces;
    enqueued_withdrawals = !withdraws;
    deliveries = !deliveries;
    drops = !drops;
    mrai_deferrals = !deferrals;
    recolorings = !recolorings;
  }

let outage_at t at =
  List.fold_left
    (fun acc w -> if w.from_t <= at && at < w.until_t then acc + 1 else acc)
    0 t.windows

let pp ppf t =
  let opt ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some f -> Format.fprintf ppf "%.6f" f
  in
  Format.fprintf ppf
    "@[<v>timeline (%s)@,\
    \  event at %.6f, final checkpoint %.6f@,\
    \  first loss %a, last decision %a@,\
    \  convergence delay %.6f s, recovery delay %.6f s@,\
    \  transient ASes %d, broken after %d, outage %.6f AS-seconds@,\
    \  decisions %d, announcements %d, withdrawals %d, deliveries %d@,\
    \  drops %d, MRAI deferrals %d, recolorings %d@,\
    \  outage windows (%d):"
    t.engine t.event_time t.converged_at opt t.first_loss opt t.last_decision
    t.convergence_delay t.recovery_delay t.transient_count t.broken_after
    t.dropped_as_seconds t.decisions t.enqueued_announcements
    t.enqueued_withdrawals t.deliveries t.drops t.mrai_deferrals t.recolorings
    (List.length t.windows);
  List.iter
    (fun w ->
      Format.fprintf ppf "@,    AS%d %s [%.6f, %.6f)" w.asn w.status w.from_t
        w.until_t)
    t.windows;
  Format.fprintf ppf "@]"

let to_json t =
  let b = Buffer.create 256 in
  let opt = function None -> "null" | Some f -> Printf.sprintf "%.17g" f in
  Buffer.add_string b
    (Printf.sprintf
       "{\"engine\":%s,\"event_time\":%.17g,\"converged_at\":%.17g,\
        \"first_loss\":%s,\"last_decision\":%s,\
        \"convergence_delay\":%.17g,\"recovery_delay\":%.17g,\
        \"transient_count\":%d,\"broken_after\":%d,\
        \"dropped_as_seconds\":%.17g,\"decisions\":%d,\
        \"enqueued_announcements\":%d,\"enqueued_withdrawals\":%d,\
        \"deliveries\":%d,\"drops\":%d,\"mrai_deferrals\":%d,\
        \"recolorings\":%d,\"windows\":["
       (Json.string t.engine) t.event_time t.converged_at (opt t.first_loss)
       (opt t.last_decision) t.convergence_delay t.recovery_delay
       t.transient_count t.broken_after t.dropped_as_seconds t.decisions
       t.enqueued_announcements t.enqueued_withdrawals t.deliveries t.drops
       t.mrai_deferrals t.recolorings);
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"asn\":%d,\"status\":%s,\"from\":%.17g,\"until\":%.17g}"
           w.asn (Json.string w.status) w.from_t w.until_t))
    t.windows;
  Buffer.add_string b "]}";
  Buffer.contents b
