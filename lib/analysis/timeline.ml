(* Runner's Status events drive the outage fold its probes drove: an
   unchanged one at the injection instant is the baseline snapshot, any
   other unchanged one a final-probe correction. *)

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

let of_events events =
  let engine = ref "" in
  let event_time = ref 0. in
  let saw_injection = ref false in
  let converged_at = ref 0. in
  let saw_final = ref false in
  let last_decision = ref None in
  let decisions = ref 0 in
  let announces = ref 0 in
  let withdraws = ref 0 in
  let deliveries = ref 0 in
  let drops = ref 0 in
  let deferrals = ref 0 in
  let recolorings = ref 0 in
  let outages = Transient.outages () in
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
          match e.loc with
          | Trace.Node asn ->
              let observation =
                if changed then Transient.Checkpoint
                else if !saw_injection && e.vtime = !event_time then
                  Transient.Baseline
                else Transient.Final
              in
              Transient.observe outages ~at:e.vtime observation asn
                (Fwd_walk.status_of_string status)
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
  let windows =
    List.map
      (fun (asn, s, from_t, until_t) ->
        { asn; status = Fwd_walk.string_of_status s; from_t; until_t })
      (Transient.windows outages ~until:!converged_at)
  in
  {
    engine = !engine;
    event_time = !event_time;
    converged_at = !converged_at;
    first_loss = (match windows with w :: _ -> Some w.from_t | [] -> None);
    last_decision = !last_decision;
    convergence_delay =
      (match !last_decision with
      | Some t -> Float.max 0. (t -. !event_time)
      | None -> 0.);
    recovery_delay =
      (match Transient.last_change outages with
      | Some t -> Float.max 0. (t -. !event_time)
      | None -> 0.);
    transient_count = Transient.transient outages;
    broken_after = Transient.broken outages;
    windows;
    loop_windows =
      List.filter
        (fun w -> w.status = Fwd_walk.(string_of_status Looped))
        windows;
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
  let opt = function None -> "null" | Some f -> Printf.sprintf "%.17g" f in
  let window w =
    Printf.sprintf "{\"asn\":%d,\"status\":%s,\"from\":%.17g,\"until\":%.17g}"
      w.asn (Json.string w.status) w.from_t w.until_t
  in
  Printf.sprintf
    "{\"engine\":%s,\"event_time\":%.17g,\"converged_at\":%.17g,\
     \"first_loss\":%s,\"last_decision\":%s,\
     \"convergence_delay\":%.17g,\"recovery_delay\":%.17g,\
     \"transient_count\":%d,\"broken_after\":%d,\
     \"dropped_as_seconds\":%.17g,\"decisions\":%d,\
     \"enqueued_announcements\":%d,\"enqueued_withdrawals\":%d,\
     \"deliveries\":%d,\"drops\":%d,\"mrai_deferrals\":%d,\
     \"recolorings\":%d,\"windows\":[%s]}"
    (Json.string t.engine) t.event_time t.converged_at (opt t.first_loss)
    (opt t.last_decision) t.convergence_delay t.recovery_delay
    t.transient_count t.broken_after t.dropped_as_seconds t.decisions
    t.enqueued_announcements t.enqueued_withdrawals t.deliveries t.drops
    t.mrai_deferrals t.recolorings
    (String.concat "," (List.map window t.windows))
