(** Checkpointed transient-problem monitor — the measurement behind the
    paper's Figures 2 and 3 ("number of ASes with transient problems").

    The monitor drives a simulation to convergence while probing the
    forwarding plane at fixed virtual-time intervals. An AS {e experiences
    a transient problem} when some checkpoint after the routing event shows
    its packets looping or blackholed {e and} the AS has working delivery
    once the protocol has converged (ASes that end up legitimately
    disconnected are not transient casualties). This matches the paper's
    counting: transient loops and failures during convergence. *)

type outcome = {
  transient : bool array;
      (** per AS: had a loop/blackhole at some checkpoint but delivers at
          convergence *)
  final : Fwd_walk.status array;  (** status after convergence *)
  checkpoints : int;  (** number of probes taken *)
  converged_at : float;  (** simulation time when the event queue drained *)
  last_status_change : float;
      (** simulation time of the last probe at which any AS's forwarding
          status differed from the previous probe — when the forwarding
          plane stabilised. Equals the event time when forwarding was never
          disturbed. *)
}

val transient_count : outcome -> int
(** Number of ASes with [transient.(v) = true]. *)

val watch :
  Sim.t ->
  interval:float ->
  max_events:int ->
  max_vtime:float ->
  probe:(unit -> Fwd_walk.status array) ->
  note:(final:bool -> Fwd_walk.status array -> unit) ->
  Sim.verdict
(** The checkpoint loop every forwarding-plane measurement folds over.
    Probe immediately (the instant of the routing event), then drive the
    simulation in [interval]-second slices of virtual time, probing after
    every slice that fired events while more are pending (quiet MRAI gaps
    cost nothing), until the event queue drains or a budget runs out; then
    probe one final time. Each probe's result goes to [note], with
    [~final:true] only for the last one.

    Returns {!Sim.Converged} when the queue drained,
    {!Sim.Event_budget_exhausted} when [max_events] fired with events still
    pending, and {!Sim.Time_budget_exhausted} when the clock reached
    [max_vtime] with events still pending. The final probe runs in every
    case.
    @raise Invalid_argument on a non-positive [interval]. *)

val run_guarded :
  Sim.t ->
  ?interval:float ->
  ?max_events:int ->
  ?max_vtime:float ->
  ?on_status:(changed:bool -> Topology.vertex -> Fwd_walk.status -> unit) ->
  probe:(unit -> Fwd_walk.status array) ->
  unit ->
  outcome * Sim.verdict
(** The transient set as a fold over {!watch}, with [interval] (default
    0.02 s, matching the paper's 10-20 ms message delays so transient
    windows are not missed), [max_events] (default 50 million) and
    [max_vtime] (default unbounded). Returns {!watch}'s verdict, so sweeps
    over adversarial or churn-heavy instances degrade gracefully: on a
    non-{!Sim.Converged} verdict the outcome reports whatever the monitor
    observed up to the kill point (the final probe still runs, so [final]
    reflects the forwarding plane at the moment the budget hit).

    The monitor keeps the previous probe's array, so [probe] must never
    mutate an array it returned; when it returns that same array again
    ({!Engine.probe} does exactly when no status moved) the checkpoint is
    taken as unchanged without a per-AS comparison.

    [on_status] observes the per-AS statuses the aggregate outcome is
    computed from, in a protocol precise enough to reconstruct it exactly:
    first every AS once with [changed:false] (the baseline snapshot at the
    observation start), then — at each checkpoint where anything moved —
    each AS whose status differs from the previous checkpoint with
    [changed:true] (these are exactly the instants [last_status_change]
    tracks, and together with the baseline exactly the statuses that feed
    the [transient] troubled set), and finally each AS whose final-probe
    status differs from the last checkpoint with [changed:false] (the
    final probe never moves [last_status_change] or the troubled set —
    historical semantics). Pure observation: the monitor's behaviour is
    identical with or without it. *)
