(** Uniform driver: run one (engine, scenario) pair to convergence and
    measure transient problems, convergence delay and message overhead.

    The runner is generic over {!Engine.S}: every entry point builds a
    packed {!Engine.instance} and drives it through one set-up and one
    converge-and-inject step — {!run} only chooses which engine to pack,
    and {!run_traffic} observes packet fates instead of transient ASes.

    Every entry point is guarded by a {!budget}: no run can hang on a
    diverging or churn-saturated instance — it terminates with a
    non-{!Sim.Converged} verdict instead, and sweeps report the row with
    partial data. *)

type protocol = Bgp | Rbgp_no_rci | Rbgp | Stamp

val all_protocols : protocol list
(** In the paper's bar order: BGP, R-BGP without RCI, R-BGP, STAMP. *)

val protocol_name : protocol -> string

val engine_of_protocol : protocol -> (module Engine.S)
(** The engine behind each paper protocol. *)

val engines : (string * (module Engine.S)) list
(** Every engine the generic test suites and benches exercise, keyed by
    name: the four paper engines in bar order, then
    {!Bgp_engine.hybrid_full}. *)

type budget = {
  max_events : int;  (** whole-run cap on simulation events processed *)
  max_vtime : float;
      (** per-phase cap on simulated seconds: initial convergence may use
          this much virtual time, and reconvergence this much again after
          the event instant *)
}

val default_budget : budget
(** 50 million events and 86 400 simulated seconds (one virtual day) —
    far above anything the paper's workloads need, so results are
    unchanged for healthy instances; only pathological ones get killed. *)

val inject :
  trace:Trace.sink ->
  Topology.t ->
  Engine.instance ->
  Sim.t ->
  Scenario.event ->
  unit
(** Apply one scenario event to the instance. {!Scenario.At} defers the
    inner event on the simulation clock; a concrete event is traced when it
    applies, before the engine reacts. *)

type result = {
  transient_count : int;
      (** ASes with transient forwarding problems after the event *)
  broken_after : int;
      (** ASes without working delivery once converged (permanent loss) *)
  convergence_delay : float;
      (** seconds from event injection to the last routing change anywhere
          (control-plane quiescence) *)
  recovery_delay : float;
      (** seconds from event injection until the forwarding plane
          stabilised — the last instant any AS's delivery status changed.
          0 when forwarding was never disturbed (the reliability metric the
          paper's Section 6.3 delay claim is about) *)
  messages_initial : int;  (** updates sent during initial convergence *)
  messages_event : int;  (** updates sent while reconverging *)
  checkpoints : int;
  counters : Counters.t;
      (** whole-run update-traffic breakdown (announcements, withdrawals,
          MRAI deferrals, messages lost to session resets) — a snapshot, so
          it stays valid after the run. Its announcements + withdrawals
          always equal [messages_initial + messages_event]. *)
  verdict : Sim.verdict;
      (** {!Sim.Converged} when the run quiesced; otherwise which budget
          killed it — the other fields then describe the run up to the
          kill point (if initial convergence itself was killed, the
          event was never injected and the event-phase fields are zero) *)
  diagnostics : Diagnostic.t list;
      (** findings of the pre-run static analysis ([?validate]); empty
          under [`Off] *)
  certificate : Staticcheck.certificate option;
      (** the convergence certificate of the pre-run static analysis:
          [Some Convergence_certified] when the policy graph was verified
          dispute-wheel-free (the run {e must} quiesce,
          Griffin–Shepherd–Wilfong); [None] under [`Off] *)
  timeline : Timeline.t option;
      (** the convergence timeline reconstructed from the run's trace —
          [Some] iff [?trace] was a readable (memory) sink. Its aggregate
          fields equal the corresponding fields of this record (the
          differential test suite enforces this for every registered
          engine on converged runs). *)
}

val run_engine :
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  ?detect_delay:float ->
  ?budget:budget ->
  ?validate:Staticcheck.validate ->
  ?trace:Trace.sink ->
  (module Engine.S) ->
  Topology.t ->
  Scenario.spec ->
  result
(** The generic entry point: statically validate the (topology, scenario)
    pair, build the engine's network, converge, inject the scenario's
    events (immediate ones at the event instant, {!Scenario.At}-wrapped
    ones on the simulation clock), and monitor reconvergence with
    {!Transient.run_guarded} under [budget] (default {!default_budget}).

    [validate] (default [`Warn]) controls the pre-run static analysis
    ({!Staticcheck.analyze} scoped to the spec's destination): [`Warn]
    attaches the diagnostics and certificate to the result and logs
    error-severity findings; [`Strict] additionally raises
    [Invalid_argument] on them; [`Off] skips the analysis (result carries
    no diagnostics and no certificate).

    [detect_delay] (default 0) postpones the adjacent routers' reaction to
    link and node failures while the data plane is already broken; a
    [Scenario.spec.detect_delay] override wins over the argument.

    [trace] (default {!Trace.null}) receives the run's structured event
    stream: run-phase markers (["start"], ["initial-converged"],
    ["events-injected"], ["final"]), the scenario events at their
    application instants, the engine's session/decision events and the
    monitor's per-AS status changes. A readable (memory) sink additionally
    yields a reconstructed {!Timeline.t} in the result. With the null sink
    the run is bit-identical to an untraced one: tracing draws no
    randomness and schedules nothing.
    @raise Invalid_argument under [`Strict] when the static analysis finds
    an error. *)

val run :
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  ?detect_delay:float ->
  ?budget:budget ->
  ?validate:Staticcheck.validate ->
  ?trace:Trace.sink ->
  protocol ->
  Topology.t ->
  Scenario.spec ->
  result
(** {!run_engine} on {!engine_of_protocol}. STAMP uses
    {!Coloring.Random_choice} seeded from [seed]. Protocol variants go to
    {!run_engine} directly: [Stamp_engine.make] builds the STAMP ablation
    variants, [Bgp_engine.hybrid ~deployed] a partial deployment. *)

val run_traffic :
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  ?detect_delay:float ->
  ?budget:budget ->
  ?validate:Staticcheck.validate ->
  protocol ->
  Topology.t ->
  Scenario.spec ->
  Traffic.summary
(** Like {!run} but measure the packet-loss composition during
    reconvergence with {!Traffic.observe} instead of counting affected
    ASes — the paper's Section 1 motivation (loops vs blackholes). The
    summary's [verdict] reports how the observation ended; when the budget
    killed the initial convergence, no event is injected and the summary
    has no buckets and no losses. *)
