(** Discrete-event simulation engine: a virtual clock, a deterministic RNG
    and an event queue of callbacks and of integer events, which run in
    one handler ({!on_event}) and allocate nothing. Equal-time events of
    either kind run in the order they were scheduled.

    All protocol engines in this repository (BGP, R-BGP, STAMP) are driven
    by one [Sim.t] per experiment run. Reproducibility contract: the same
    seed and the same sequence of [schedule] calls produce the same
    execution. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh simulation at time 0 (default seed 0). *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Random.State.t
(** The simulation's RNG. All protocol randomness must come from here. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Run a callback [delay] seconds from now.
    @raise Invalid_argument on negative or NaN delay. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Run a callback at an absolute time.
    @raise Invalid_argument if [time] precedes the current time. *)

val on_event : t -> (int -> unit) -> unit
(** Install the handler of integer events; one per simulation.
    @raise Invalid_argument if a handler is already installed. *)

val schedule_event : t -> time:float -> int -> unit
(** Queue the integer event [p] at an absolute time.
    @raise Invalid_argument if [time] is past or [p] negative. *)

val step : t -> bool
(** Process the earliest pending event; [false] when the queue is empty. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Process events until the queue drains, the clock passes [until], or
    [max_events] have been processed (default: unbounded). Events scheduled
    past [until] remain queued; when a finite [until] is given the clock
    advances to it even if no event fell inside the window, so a simulation
    can be stepped in fixed increments. The clock only advances to the
    horizon when no pending event is due at or before it (the loop may
    have stopped on [max_events] with work left; warping past pending
    events would run simulated time backwards on the next {!step}). *)

(** {1 Guarded execution}

    BGP-family protocols can diverge under adversarial policies, and churn
    workloads replay events for a long simulated time; a watchdog verdict
    instead of an open-ended loop keeps one pathological instance from
    hanging a whole experiment sweep. *)

type verdict =
  | Converged  (** the event queue drained: the protocol quiesced *)
  | Event_budget_exhausted
      (** [max_events] were processed with events still pending *)
  | Time_budget_exhausted
      (** every remaining event lies past the simulated-time horizon *)

val verdict_name : verdict -> string
(** Stable lower-case label (["converged"], ["event-budget-exhausted"],
    ["time-budget-exhausted"]) for reports and JSON output. *)

val equal_verdict : verdict -> verdict -> bool

val run_guarded : ?until:float -> ?max_events:int -> t -> verdict
(** Like {!run} but returns how the loop ended instead of hanging on a
    diverging instance: {!Converged} when the queue drained,
    {!Event_budget_exhausted} when [max_events] fired with work left, and
    {!Time_budget_exhausted} when only events past [until] remain. Unlike
    {!run} the clock is {e never} warped to the horizon — on a
    non-converged verdict it stays at the last processed event, so pending
    events remain schedulable and measurements read the time real work
    stopped. *)

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int
(** Total events processed since creation. *)
