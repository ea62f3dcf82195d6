(** Packet-loss composition during convergence — the paper's motivation
    (Section 1 cites measurements that transient loops account for up to
    90 % of packet losses during BGP convergence).

    While a protocol reconverges after an event, this module samples the
    fate of packets injected from every AS at fine virtual-time intervals
    and aggregates, per time bucket, how many source ASes could deliver
    and how many lost packets to loops vs. blackholes. *)

type bucket = {
  t_start : float;  (** bucket start, seconds after the event *)
  delivered : float;  (** average ASes whose packets were delivered *)
  looped : float;  (** average ASes whose packets looped *)
  blackholed : float;  (** average ASes whose packets were dropped *)
}

type summary = {
  buckets : bucket list;
  loss_events : int;  (** probe observations that lost packets *)
  loop_events : int;  (** of which loops *)
  verdict : Sim.verdict;
      (** how the observation ended: {!Sim.Converged} when the queue
          drained, otherwise which budget killed the run *)
}

val observe :
  Sim.t ->
  ?interval:float ->
  ?max_events:int ->
  ?max_vtime:float ->
  probe:(unit -> Fwd_walk.status array) ->
  unit ->
  summary
(** Drive the simulation to convergence through {!Transient.watch},
    probing every [interval] (default 0.02 s) and aggregating the per-AS
    statuses of every checkpoint, the final one included, into 1 s
    buckets. [max_events] (default 50 million) and [max_vtime] (default
    unbounded) bound the loop; when a budget hits, the partial summary is
    returned with the matching {!Sim.verdict}.
    @raise Invalid_argument on a non-positive [interval]
    ({!Transient.watch}'s check). *)
