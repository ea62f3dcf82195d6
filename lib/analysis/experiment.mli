(** Paper-level experiments: one function per table/figure of Section 6.
    Each returns a structured result; {!Report} renders them as the rows
    and series the paper plots.

    Every sweep runs through one driver: it runs each variant (a protocol,
    an engine, a parameter value) on every sampled scenario instance,
    accepts an optional {!Parallel.t} pool and distributes its independent
    jobs over it. Determinism contract: each job derives all randomness
    from its own explicit seed ([seed + instance]), so for fixed seeds the
    returned numbers are {e bit-identical} whether [pool] is absent, has
    one worker, or has many. *)

type fig1_result = {
  cdf : Cdf.t;  (** the Figure 1 CDF of Φk over all destinations *)
  mean_random : float;  (** paper: ≈ 0.92 *)
  mean_intelligent : float;  (** paper: ≈ 0.97 (§6.1, intelligent selection) *)
  frac_below_07 : float;  (** paper: < 0.10 of destinations have Φ ≤ 0.7 *)
  frac_above_09 : float;  (** paper: > 0.75 of destinations have Φ > 0.9 *)
}

val fig1 :
  ?samples:int -> ?intelligent_samples:int -> ?seed:int -> Topology.t ->
  fig1_result
(** Monte-Carlo Φ for every destination ([samples] walks each, default
    100); intelligent selection re-estimated with [intelligent_samples]
    walks per candidate provider (default 30). *)

type bars = (Runner.protocol * float) list
(** Average ASes-with-transient-problems per protocol — one bar group of
    Figure 2/3. *)

val failure_bars :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  scenario:(Random.State.t -> Topology.t -> Scenario.spec) ->
  Topology.t ->
  bars
(** Run every protocol on [instances] sampled scenarios (default 20) and
    average the transient counts — the engine behind Figures 2, 3(a),
    3(b) and the node-failure variant. The means of
    {!failure_bars_stats}. *)

val failure_bars_stats :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  scenario:(Random.State.t -> Topology.t -> Scenario.spec) ->
  Topology.t ->
  (Runner.protocol * Stat.summary) list
(** Like {!failure_bars} but with the full per-protocol distribution over
    instances (mean, standard deviation, median, extremes) — failure
    impact is heavy-tailed, so a bar without spread is easy to
    over-read. *)

type overhead_result = {
  protocol : Runner.protocol;
  avg_messages_initial : float;
  avg_messages_event : float;
  avg_delay : float;  (** mean control-plane reconvergence delay, seconds *)
  avg_recovery : float;
      (** mean forwarding-plane stabilisation delay, seconds — the paper's
          operational "convergence delay": STAMP is expected to recover
          far faster than BGP *)
}

val overhead_and_delay :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  Topology.t ->
  overhead_result list
(** Section 6.3: per-protocol message counts and convergence delay on the
    single-link-failure workload. The paper expects STAMP to stay below
    twice BGP's updates and to reconverge faster than BGP. *)

val partial_deployment : Topology.t -> float
(** Section 6.3: fraction of destinations protected by tier-1-only
    deployment (paper: ≈ 0.75). Alias of {!Phi.partial_deployment_tier1}. *)

val partial_deployment_dynamic :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  ?mrai_base:float ->
  max_tier:int ->
  Topology.t ->
  (int * float) list
(** The dynamic counterpart of {!partial_deployment}: average
    ASes-with-transient-problems on the Figure 2 workload when STAMP runs
    only at ASes of tier <= k, for k in [[0, max_tier]] ([k = 0]: tier-1
    only). Compare against the BGP and full-STAMP bars of {!failure_bars}.

    Expect numbers close to plain BGP: {!Bgp_engine.hybrid}'s design
    guarantees partial deployment never hurts, but most transient problems
    live in stale loops and blackholes {e at legacy ASes}, which a deployed
    AS cannot see — its own best route looks healthy. STAMP's dynamic benefit
    comes from the [ET]-signalled remote switching, which cannot cross
    legacy hops; the static 75 % capability (two disjoint paths exist) is
    only realised under wide deployment. *)

(** {1 Ablations and motivation checks}

    Not figures of the paper, but benches for the design decisions
    DESIGN.md calls out and for the measurement claims the paper builds
    its motivation on. *)

val ablation_mrai :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  values:float list ->
  Topology.t ->
  (float * (Runner.protocol * float * float) list) list
(** Per MRAI base interval (the paper fixes 30 s), for every protocol the
    average transient-AS count and the average reconvergence delay. The
    damage {e extent} is largely MRAI-independent (the same routers lose
    routes either way), but its {e duration} scales directly with the
    timer. *)

val ablation_stamp_variants :
  ?pool:Parallel.t ->
  ?instances:int -> ?seed:int -> Topology.t -> (string * float) list
(** Average transient count of STAMP variants on the Figure 2 workload:
    the baseline (lock-only blue propagation, random colouring), the
    unlocked-blue-spreading variant (DESIGN.md decision 6) and the
    intelligent-colouring variant. *)

val ablation_probe_interval :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  values:float list ->
  Topology.t ->
  (float * float) list
(** Sensitivity of the transient-problem metric itself to the monitor's
    probe interval, measured on BGP: coarser probes miss short windows. *)

val ablation_detection :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  values:float list ->
  Topology.t ->
  (float * bars) list
(** Transient counts per protocol as a function of the {e control-plane}
    failure-detection delay (e.g. waiting for the BGP hold timer instead
    of reacting to the interface-down signal). The data plane of every
    protocol still sees the interface go down immediately, so R-BGP's
    deflection and STAMP's packet re-colouring keep forwarding alive while
    the control plane is blind — plain BGP has no data-plane fallback and
    its affected-AS count grows with the delay. Theorem 5.1's "once the
    adjacent ASes have detected the event" is about exactly this
    reaction. *)

val ablation_topology :
  ?pool:Parallel.t ->
  ?instances:int -> ?seed:int -> n:int -> unit -> (string * bars) list
(** Robustness of the Figure 2 ordering across topology families: the
    single-link bars on the default generator parameters and on sparser /
    denser multi-homing and peering variants (all of size [n]). *)

(** {1 Churn sweeps}

    Repeated-event workloads (flapping links, sustained churn) stress the
    watchdog layer: every instance runs under a {!Runner.budget} and the
    sweep reports per-instance verdicts instead of aborting when one
    instance exhausts its budget or crashes. *)

type churn_row = {
  row_protocol : Runner.protocol;
  instance : int;  (** scenario-instance index within the sweep *)
  job_seed : int;  (** the seed the job actually ran with *)
  outcome : (Runner.result, string) result;
      (** [Error] carries the printed exception of a crashed job; budget
          kills are [Ok] rows with a non-[Converged] verdict *)
}

type churn_summary = {
  protocol : Runner.protocol;
  completed : int;  (** instances that produced a result *)
  crashed : int;  (** instances whose job raised *)
  converged : int;
  event_budget_exhausted : int;
  time_budget_exhausted : int;  (** verdict tallies over completed rows *)
  avg_transients : float;
      (** mean transient-AS count over completed rows ([nan] if none) *)
  avg_messages_event : float;
      (** mean update messages during the event phase ([nan] if none) *)
}

val churn_sweep :
  ?pool:Parallel.t ->
  ?instances:int ->
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  ?budget:Runner.budget ->
  scenario:(Random.State.t -> Topology.t -> Scenario.spec) ->
  Topology.t ->
  churn_row list * churn_summary list
(** Run every protocol on [instances] sampled scenarios (default 10) under
    [budget] (default {!Runner.default_budget}), capturing per-job crashes
    and budget verdicts into the rows; the per-protocol summaries tally
    verdicts and average the usual metrics over completed rows. Pair with
    {!Scenario.flap} or {!Scenario.churn}. Same determinism contract as
    the other sweeps. *)

val motivation_loss_composition :
  ?pool:Parallel.t ->
  ?instances:int -> ?seed:int -> Topology.t -> (Runner.protocol * float) list
(** Fraction of packet-loss observations during reconvergence that are
    loops rather than blackholes, per protocol — the paper's Section 1
    cites measurements attributing up to 90 % of convergence losses to
    transient loops. [nan] when a protocol loses no packets at all. *)

(** {1 Tracing overhead} *)

type trace_overhead_result = {
  null_s : float;  (** CPU seconds with the {!Trace.null} sink *)
  memory_s : float;  (** CPU seconds recording into a {!Trace.memory} sink *)
  traced_events : int;  (** events recorded across all memory-sink runs *)
  identical : bool;
      (** every run's result record (timeline aside) was bit-identical
          across the two passes — the zero-cost-when-off contract *)
}

val trace_overhead :
  ?instances:int ->
  ?seed:int ->
  ?mrai_base:float ->
  ?interval:float ->
  Topology.t ->
  trace_overhead_result
(** Run every protocol on [instances] (default 10) single-link-failure
    scenarios twice — with the null sink, and recording into a memory
    sink — and time each pass. The memory pass prices actual recording.
    There is no untraced pass: a run without [?trace] uses the null sink
    ({!Runner.run_engine}), so it would time the null pass again.
    Deliberately sequential (no [?pool]): sinks are single-domain state
    and the metric is per-core cost. *)
