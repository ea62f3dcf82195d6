(** Partial STAMP deployment in the event-driven simulator (the dynamic
    counterpart of Section 6.3's tier-1-only analysis).

    Design: below full deployment, STAMP's coordinated announcement rules
    cannot run end to end — a locked blue chain breaks at the first legacy
    hop, and any deviation of the advertised routes from plain BGP turns
    out to inject extra convergence churn into the legacy region (we
    measured this; see DESIGN.md). What a partially deployed AS {e can}
    soundly do is exactly what the paper's Section 5 requires of routers:
    keep a second, maximally downhill-disjoint route from its RIB as a
    local {e blue table}, detect that its primary is disturbed, and
    re-colour packets onto the backup — at most once per packet. The
    control plane stays byte-for-byte plain BGP (so partial deployment can
    never make routing worse), and the backup candidates are ordinary
    advertised routes, so forwarding through legacy neighbours follows the
    very paths they advertised.

    An upgraded AS therefore provides the protection the static analysis
    counts — "two downhill node-disjoint paths" — whenever its RIB holds a
    disjoint alternate, which for tier-1 ASes is the paper's ≈ 75 % of
    destinations. *)

type t

val create :
  Sim.t ->
  Topology.t ->
  dest:Topology.vertex ->
  deployed:(Topology.vertex -> bool) ->
  ?mrai_base:float ->
  ?delay_lo:float ->
  ?delay_hi:float ->
  ?detect_delay:float ->
  ?trace:Trace.sink ->
  unit ->
  t
(** Build routers and channels ({!Session_core}). [trace] (default
    {!Trace.null}) receives the session substrate's events plus
    per-router decision changes. [detect_delay] (default
    0) postpones the control-plane reaction to every subsequent
    {!fail_link}. *)

val start : t -> unit
val sim : t -> Sim.t
val dest : t -> Topology.vertex
val is_deployed : t -> Topology.vertex -> bool

val fail_link : t -> Topology.vertex -> Topology.vertex -> unit

val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Bring a link back: the session re-establishes and both sides
    re-advertise their current best routes (backup tables refresh as the
    RIBs change). *)

val fail_node : t -> Topology.vertex -> unit
(** Fail an AS entirely (legacy BGP semantics — the blue-table machinery
    holds no extra per-node protocol state to tear down, so the reset is
    exactly {!Bgp_net.fail_node}'s). *)

val recover_node : t -> Topology.vertex -> unit
(** Bring a failed AS back: sessions re-establish and neighbours
    re-announce; the returning router restarts with empty RIBs and an
    empty backup table. *)

val deny_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Policy change: stop exporting to a neighbour (plain BGP semantics; an
    immediate withdrawal follows if something was advertised). *)

val allow_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Revert {!deny_export}. *)

val best : t -> Topology.vertex -> Route.t option
(** The (plain BGP) best route of an AS. *)

val backup : t -> Topology.vertex -> Route.t option
(** The blue table of an upgraded AS: the RIB route most downhill-disjoint
    from the best, restricted to the top local-pref class. [None] at
    legacy ASes and when no alternate exists. *)

val has_disjoint_backup : t -> Topology.vertex -> bool
(** Whether the AS currently holds a backup whose downhill portion is
    node-disjoint from its best route's (except the destination) — the
    protection unit the Section 6.3 analysis counts. *)

val walk_all : t -> Fwd_walk.status array
(** Packets follow best routes; an upgraded AS whose best is missing or
    physically broken re-colours the packet onto its backup. From there
    the packet follows best routes again (the backup is an advertised
    route of the deflection neighbour, so its hops are the downstream best
    chain; following other ASes' local backups would compose unrelated
    picks and can loop). One re-colouring per packet, as in Section 5.
    Cached until the next forwarding change, like {!Bgp_net.walk_all}: the
    array may be shared with earlier calls and must not be mutated. *)

val touch_fwd : t -> unit
(** Invalidate the cached walk (see {!Session_core.touch_fwd}). *)

val message_count : t -> int
val last_change : t -> float
val counters : t -> Counters.t
