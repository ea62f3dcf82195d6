(** Per-destination convergence timelines, reconstructed from a trace
    alone.

    {!of_events} replays a run's {!Trace.event} stream (in emission order,
    as returned by {!Trace.events} on a memory sink) and rebuilds the
    quantities the paper's Fig. 2/3 are made of: when the event hit, which
    ASes lost delivery and for how long (outage {!window}s, split into
    loops and blackholes), when the forwarding plane stabilised and when
    the control plane went quiet. The aggregate fields reproduce the
    Runner's own measurements exactly: [transient_count], [broken_after]
    and [recovery_delay] come from the outage fold {!Transient.run_guarded}
    computes them with, and the differential test suite checks them and
    [convergence_delay] against [Runner.result] for every engine in
    [Runner.engines]. *)

type window = {
  asn : int;
  status : string;  (** [Looped] or [Blackholed], by its status name *)
  from_t : float;  (** virtual time the AS entered this status *)
  until_t : float;
      (** virtual time it left it (clipped to the final checkpoint for
          windows still open when the run ended) *)
}

type t = {
  engine : string;  (** engine id of the run-phase markers *)
  event_time : float;  (** when the scenario's events were injected *)
  converged_at : float;  (** virtual time of the final checkpoint *)
  first_loss : float option;
      (** first instant any AS was observed without working delivery *)
  last_decision : float option;
      (** virtual time of the last best-route change anywhere *)
  convergence_delay : float;  (** = [Runner.result.convergence_delay] *)
  recovery_delay : float;  (** = [Runner.result.recovery_delay] *)
  transient_count : int;  (** = [Runner.result.transient_count] *)
  broken_after : int;  (** = [Runner.result.broken_after] *)
  windows : window list;
      (** every observed outage interval, ordered by start time (ties by
          ASN); checkpoint-resolution, like the monitor that produced the
          statuses *)
  loop_windows : window list;  (** the subset with status [Looped] *)
  dropped_as_seconds : float;
      (** Σ window durations: AS·seconds of packets-would-be-dropped *)
  decisions : int;  (** best-route changes over the whole run *)
  enqueued_announcements : int;
  enqueued_withdrawals : int;
  deliveries : int;
  drops : int;  (** messages lost to session resets *)
  mrai_deferrals : int;
  recolorings : int;  (** STAMP instability flips (0 for other engines) *)
}

val of_events : Trace.event list -> t
(** Rebuild the timeline from a raw (emission-ordered) event stream. Works
    on partial traces — missing phase markers default to virtual time 0 /
    the last event's time — but the aggregate-equality guarantee only
    holds for a complete run recorded through [Runner] with a memory
    sink. A changed [Status] is a [Checkpoint] observation, an unchanged
    one at the [events-injected] instant the [Baseline], any other [Final].
    @raise Invalid_argument on an unknown status name. *)

val outage_at : t -> float -> int
(** Number of ASes inside an outage window at the given instant (the
    y-axis of the paper's Fig. 2-style timeline plots). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable summary. *)

val to_json : t -> string
(** One JSON object (aggregates plus the window list), for tooling. *)
