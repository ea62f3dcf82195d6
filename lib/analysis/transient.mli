(** Checkpointed transient-problem monitor — the measurement behind the
    paper's Figures 2 and 3 ("number of ASes with transient problems").

    The per-AS rule is one fold over status observations: {!run_guarded}
    feeds it probe diffs, [Timeline.of_events] a trace's [Status] events.
    An AS is {e troubled} when it is not delivered at the {!Baseline} or
    at a {!Checkpoint} where its status changed; a {!Final} observation
    updates its status but never troubles it or moves {!last_change}. It
    is {e transient} when troubled and delivered at the end, {e broken}
    when not delivered at the end. *)

type observation =
  | Baseline  (** an AS's status at the observation start *)
  | Checkpoint  (** a status that moved at a checkpoint *)
  | Final  (** a status that moved at the final probe *)

type outages
(** The fold. Only an AS that ever left [Delivered] has an entry: its
    status, since when, and whether it is troubled. *)

val outages : unit -> outages

val observe :
  outages -> at:float -> observation -> int -> Fwd_walk.status -> unit
(** [observe t ~at o asn status]: AS [asn] has [status] at time [at]. *)

val transient : outages -> int
val broken : outages -> int

val windows :
  outages -> until:float -> (int * Fwd_walk.status * float * float) list
(** The outage windows [(asn, status, from, until)], the open ones clipped
    to [until], ordered by start time, ties by [asn]. *)

val last_change : outages -> float option
(** The instant of the last {!Checkpoint} observation. *)

type outcome = {
  outages : outages;  (** the fold over every probe *)
  final : Fwd_walk.status array;  (** status after convergence *)
  checkpoints : int;  (** number of probes taken *)
  last_status_change : float;
      (** {!last_change}, or the start time when forwarding was never
          disturbed: when the forwarding plane stabilised *)
}

val transient_count : outcome -> int
(** [transient o.outages]. *)

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
(** The outage fold over {!watch}, with [interval] (default 0.02 s, the
    paper's 10-20 ms message delays, so no transient window is missed),
    [max_events] (default 50 million) and [max_vtime] (default unbounded).
    Returns {!watch}'s verdict: on a non-{!Sim.Converged} one the outcome
    reports what the monitor saw up to the kill point, [final] included.

    The monitor keeps the previous probe's array, so [probe] must never
    mutate an array it returned; when it returns that same array again
    ({!Engine.probe} does exactly when no status moved) the checkpoint is
    taken as unchanged without a per-AS comparison.

    [on_status] sees each observation the fold makes, in order: every
    AS's {!Baseline}, then at each checkpoint the ASes whose status moved
    ({!Checkpoint}, the only ones with [changed:true]), then the ASes the
    final probe moved ({!Final}). Pure observation: the monitor behaves
    identically with or without it. *)

val snapshot : Sim.t -> probe:(unit -> Fwd_walk.status array) -> outcome
(** An unmonitored run's outcome: one probe, folded as {!Final}. *)
