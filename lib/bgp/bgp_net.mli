(** Event-driven standard-BGP network for a single destination prefix,
    optionally with STAMP partially deployed.

    One router per AS, each running one {!Process}; one FIFO session per
    directed link ({!Session_core}), delays uniform in [10 ms, 20 ms],
    per-peer MRAI of 30 s × U[0.75, 1.0] applied to announcements
    (withdrawals are immediate). Policies are the paper's: prefer-customer selection
    ({!Decision}) and valley-free export ({!Export}), which make the
    protocol safe (Gao–Rexford), so every run terminates with a drained
    event queue.

    Failures are injected through {!fail_link} / {!fail_node}; adjacent
    routers react immediately (session reset: RIB entries from the peer are
    flushed and in-flight messages on the link are lost).

    {b Partial deployment} (the dynamic counterpart of Section 6.3's
    tier-1-only analysis). Below full deployment, STAMP's coordinated
    announcement rules cannot run end to end — a locked blue chain breaks
    at the first legacy hop, and any deviation of the advertised routes
    from plain BGP turns out to inject extra convergence churn into the
    legacy region (we measured this; see DESIGN.md). What a partially
    deployed AS {e can} soundly do is exactly what the paper's Section 5
    requires of routers: keep a second, maximally downhill-disjoint route
    from its RIB as a local {e blue table}, detect that its primary is
    disturbed, and re-colour packets onto the backup — at most once per
    packet. The ASes [create]'s [deployed] selects are upgraded this way;
    the control plane stays byte-for-byte plain BGP (so partial deployment
    can never make routing worse), and the backup candidates are ordinary
    advertised routes, so forwarding through legacy neighbours follows the
    very paths they advertised. An upgraded AS therefore provides the
    protection the static analysis counts — "two downhill node-disjoint
    paths" — whenever its RIB holds a disjoint alternate, which for tier-1
    ASes is the paper's ≈ 75 % of destinations. Plain BGP is the case with
    no AS upgraded. *)

type t

val create :
  Sim.t ->
  Topology.t ->
  dest:Topology.vertex ->
  ?deployed:(Topology.vertex -> bool) ->
  ?mrai_base:float ->
  ?detect_delay:float ->
  ?trace:Trace.sink ->
  unit ->
  t
(** Build routers and channels ({!Session_core}). Nothing is announced
    until {!start}. [deployed] (default: no AS) selects the upgraded ASes,
    which keep a backup route (see {!backup}). [trace] (default
    {!Trace.null}) receives the session substrate's events plus per-router
    decision changes. [detect_delay] (default 0 — instantaneous detection)
    postpones the control-plane reaction to every subsequent {!fail_link}
    while the data plane is already broken. *)

val start : t -> unit
(** The destination announces its own prefix to all neighbours (time 0 of
    the experiment). Call exactly once, then {!Sim.run}. *)

(** {1 Failure injection} — take effect at the current simulation time. *)

val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Bring a link down: the data plane breaks immediately (packets crossing
    the link are lost) and, after the [detect_delay] the network was
    created with, both end routers flush the peer's routes and withdraw /
    re-advertise as needed. In-flight messages on the link are lost.
    @raise Invalid_argument if the vertices are not adjacent. *)

val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Bring a link back: the session re-establishes and both sides
    re-advertise their current best routes. *)

val fail_node : t -> Topology.vertex -> unit
(** Fail an AS entirely: all its links go down and it stops participating
    (the paper's single node failure event); an upgraded AS loses its
    backup. *)

val recover_node : t -> Topology.vertex -> unit
(** Bring a failed AS back: its links come up (except those failed
    individually), sessions re-establish and neighbours re-announce; the
    returning router restarts with empty RIBs (and re-originates if it is
    the destination). *)

val deny_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Policy change: the first AS stops exporting routes to the second (an
    immediate withdrawal follows if something was advertised) — the
    paper's route-withdrawal event without any physical failure; the link
    stays up for whatever still uses it. *)

val allow_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Revert {!deny_export}: a route addition event (Lemma 3.1). *)

(** {1 Observation} *)

val best : t -> Topology.vertex -> Route.t option
(** Current best route of an AS ([Some Route.origin] at the destination). *)

val next_hop : t -> Topology.vertex -> Topology.vertex option

val backup : t -> Topology.vertex -> Route.t option
(** The blue table of an upgraded AS: among its RIB routes not learned
    from the best route's next hop, the one sharing the fewest downhill
    ASes (except the destination) with the best, then by the decision
    process. [None] at legacy ASes and when no alternate exists. *)

val has_disjoint_backup : t -> Topology.vertex -> bool
(** Whether the AS currently holds a backup whose downhill portion is
    node-disjoint from its best route's (except the destination) — the
    protection unit the Section 6.3 analysis counts. *)

val to_table : t -> Static_route.table
(** Snapshot of all current best routes in the oracle's table format, for
    direct comparison with {!Static_route.compute}. *)

val walk_all : t -> Fwd_walk.status array
(** Forwarding-plane status of every AS right now: each AS forwards along
    its current best route; a hop over a failed link or into a failed node
    drops the packet, unless the AS is upgraded and its backup's next hop
    is up: it then re-colours the packet onto the backup. From there the
    packet follows best routes again (the backup is an advertised route of
    the deflection neighbour, so its hops are the downstream best chain;
    following other ASes' local backups would compose unrelated picks and
    can loop). One re-colouring per packet, as in Section 5. Incremental
    ({!Session_core.probe}): the result is the very array an earlier call
    returned when no status moved since, and must not be mutated. *)

val fresh_walk : t -> Fwd_walk.status array
(** {!walk_all} from scratch, leaving the probe state untouched
    ({!Session_core.fresh_walk}). *)

val message_count : t -> int
(** Total update messages (announcements + withdrawals) sent so far. *)

val last_change : t -> float
(** Simulation time of the most recent best-route change anywhere
    (0. if none): the convergence instant once the queue drains. *)

val counters : t -> Counters.t
(** The engine's live {!Session_core} update counters. *)
