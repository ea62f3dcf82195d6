type protocol = Bgp | Rbgp_no_rci | Rbgp | Stamp

let all_protocols = [ Bgp; Rbgp_no_rci; Rbgp; Stamp ]

let protocol_name = function
  | Bgp -> "BGP"
  | Rbgp_no_rci -> "R-BGP without RCI"
  | Rbgp -> "R-BGP"
  | Stamp -> "STAMP"

let engine_of_protocol : protocol -> (module Engine.S) = function
  | Bgp -> Bgp_engine.engine
  | Rbgp_no_rci -> Rbgp_engine.no_rci
  | Rbgp -> Rbgp_engine.rci
  | Stamp -> Stamp_engine.default

let engines =
  List.map
    (fun ((module E : Engine.S) as engine) -> (E.name, engine))
    (List.map engine_of_protocol all_protocols @ [ Bgp_engine.hybrid_full ])

type budget = { max_events : int; max_vtime : float }

(* Generous enough that no paper workload ever hits it: the figure
   experiments converge within minutes of simulated time and well under a
   million events, so existing numbers are untouched — the budget exists to
   kill pathological instances, not to shape healthy ones. *)
let default_budget = { max_events = 50_000_000; max_vtime = 86_400. }

type result = {
  transient_count : int;
  broken_after : int;
  convergence_delay : float;
  recovery_delay : float;
  messages_initial : int;
  messages_event : int;
  checkpoints : int;
  counters : Counters.t;
  verdict : Sim.verdict;
  diagnostics : Diagnostic.t list;
  certificate : Staticcheck.certificate option;
  timeline : Timeline.t option;
}

(* Pre-run static analysis: scope the per-origin STAMP checks to the
   spec's destination (cheap), enforce the validation policy, and hand
   back what the result record carries. *)
let validate_spec ~validate ~mrai_base ~detect_delay topo spec =
  match validate with
  | `Off -> ([], None)
  | (`Warn | `Strict) as v ->
    let report = Staticcheck.analyze ~spec ~mrai_base ~detect_delay topo in
    Staticcheck.enforce ~what:"Runner scenario" v report;
    (report.Staticcheck.diagnostics, Some report.Staticcheck.certificate)

(* Where a scenario event lives in the trace, ASN space. *)
let rec event_loc topo = function
  | Scenario.Fail_link (u, v)
  | Scenario.Recover_link (u, v)
  | Scenario.Deny_export (u, v)
  | Scenario.Allow_export (u, v) ->
    Trace.Link (Topology.asn topo u, Topology.asn topo v)
  | Scenario.Fail_node v | Scenario.Recover_node v ->
    Trace.Node (Topology.asn topo v)
  | Scenario.At (_, e) -> event_loc topo e

let rec inject ~trace topo (net : Engine.instance) sim event =
  (match event with
  | Scenario.At _ -> ()
  | e ->
    if Trace.enabled trace then
      Trace.emit trace ~vtime:(Sim.now sim) ~engine:(Engine.name net)
        ~loc:(event_loc topo e)
        (Trace.Scenario_event
           (Format.asprintf "%a" (Scenario.pp_event topo) e)));
  match event with
  | Scenario.Fail_link (u, v) -> Engine.fail_link net u v
  | Scenario.Fail_node v -> Engine.fail_node net v
  | Scenario.Deny_export (u, v) -> Engine.deny_export net u v
  | Scenario.Recover_link (u, v) -> Engine.recover_link net u v
  | Scenario.Recover_node v -> Engine.recover_node net v
  | Scenario.Allow_export (u, v) -> Engine.allow_export net u v
  | Scenario.At (dt, e) ->
    Sim.schedule sim ~delay:dt (fun _ -> inject ~trace topo net sim e)

let phase ~trace sim net name =
  if Trace.enabled trace then
    Trace.emit trace ~vtime:(Sim.now sim) ~engine:(Engine.name net)
      ~loc:Trace.Net (Trace.Phase name)

(* The set-up both entry points share: validate the (topology, scenario)
   pair, then build the simulation and the engine's network. *)
let create ~seed ~mrai_base ~detect_delay ~validate ~trace engine topo
    (spec : Scenario.spec) =
  let detect_delay =
    match spec.detect_delay with Some d -> d | None -> detect_delay
  in
  let checked = validate_spec ~validate ~mrai_base ~detect_delay topo spec in
  let sim = Sim.create ~seed () in
  let config = { Engine.seed; mrai_base; detect_delay; trace } in
  (checked, sim, Engine.create engine sim topo ~dest:spec.dest config)

(* What the converge-and-inject step leaves for the reconvergence phase.
   [messages_initial] and [event_time] are read before injection;
   [max_events] and [max_vtime] are the budget left for reconvergence. *)
type started = {
  initial : Sim.verdict;
  messages_initial : int;
  event_time : float;
  max_events : int;
  max_vtime : float;
}

(* Start the engine and converge under [budget]; if that converged, inject
   the scenario's events. *)
let converge_and_inject ~(budget : budget) ~trace topo (spec : Scenario.spec)
    sim net =
  phase ~trace sim net "start";
  Engine.start net;
  let initial =
    Sim.run_guarded sim ~until:budget.max_vtime ~max_events:budget.max_events
  in
  let messages_initial = Engine.message_count net in
  let event_time = Sim.now sim in
  if Sim.equal_verdict initial Sim.Converged then begin
    phase ~trace sim net "initial-converged";
    List.iter (inject ~trace topo net sim) spec.events;
    phase ~trace sim net "events-injected"
  end;
  {
    initial;
    messages_initial;
    event_time;
    max_events = max 1 (budget.max_events - Sim.events_processed sim);
    max_vtime = event_time +. budget.max_vtime;
  }

let run_engine ?(seed = 0) ?(mrai_base = 30.) ?(interval = 0.02)
    ?(detect_delay = 0.) ?(budget = default_budget) ?(validate = `Warn)
    ?(trace = Trace.null) engine topo (spec : Scenario.spec) =
  let (diagnostics, certificate), sim, net =
    create ~seed ~mrai_base ~detect_delay ~validate ~trace engine topo spec
  in
  let { initial; messages_initial; event_time; max_events; max_vtime } =
    converge_and_inject ~budget ~trace topo spec sim net
  in
  let outcome, verdict =
    match initial with
    | Sim.Converged ->
      let on_status =
        if Trace.enabled trace then
          Some
            (fun ~changed v s ->
              Trace.emit trace ~vtime:(Sim.now sim) ~engine:(Engine.name net)
                ~loc:(Trace.Node (Topology.asn topo v))
                (Trace.Status
                   { status = Fwd_walk.string_of_status s; changed }))
        else None
      in
      Transient.run_guarded sim ~interval ~max_events ~max_vtime ?on_status
        ~probe:(fun () -> Engine.probe net)
        ()
    | Sim.Event_budget_exhausted | Sim.Time_budget_exhausted ->
      (* initial convergence never finished, so no event was injected:
         report the forwarding plane as it stands and let the verdict flag
         the row — the sweep goes on *)
      (Transient.snapshot sim ~probe:(fun () -> Engine.probe net), initial)
  in
  phase ~trace sim net "final";
  {
    transient_count = Transient.transient_count outcome;
    broken_after = Transient.broken outcome.outages;
    convergence_delay = Float.max 0. (Engine.last_change net -. event_time);
    recovery_delay = Float.max 0. (outcome.last_status_change -. event_time);
    messages_initial;
    messages_event = Engine.message_count net - messages_initial;
    checkpoints = outcome.checkpoints;
    counters = Counters.snapshot (Engine.counters net);
    verdict;
    diagnostics;
    certificate;
    timeline =
      (if Trace.readable trace then
         Some (Timeline.of_events (Trace.events trace))
       else None);
  }

let run ?seed ?mrai_base ?interval ?detect_delay ?budget ?validate ?trace
    protocol topo spec =
  run_engine ?seed ?mrai_base ?interval ?detect_delay ?budget ?validate ?trace
    (engine_of_protocol protocol) topo spec

let run_traffic ?(seed = 0) ?(mrai_base = 30.) ?(interval = 0.02)
    ?(detect_delay = 0.) ?(budget = default_budget) ?(validate = `Warn)
    protocol topo spec =
  let trace = Trace.null in
  let _, sim, net =
    create ~seed ~mrai_base ~detect_delay ~validate ~trace
      (engine_of_protocol protocol) topo spec
  in
  match converge_and_inject ~budget ~trace topo spec sim net with
  | { initial = Sim.Converged; max_events; max_vtime; _ } ->
    Traffic.observe sim ~interval ~max_events ~max_vtime
      ~probe:(fun () -> Engine.probe net)
      ()
  | { initial = verdict; _ } ->
    { Traffic.buckets = []; loss_events = 0; loop_events = 0; verdict }
