(** R-BGP (Kushman et al., NSDI 2007) — the comparison baseline of the
    paper's Figures 2 and 3 — with the root-cause-information (RCI)
    mechanism switchable on and off.

    Two mechanisms are layered on top of the standard BGP engine semantics
    (one {!Process} per router: same decision process, export policy, MRAI,
    delays):

    - {b Failover paths}: every router advertises, to the neighbour that is
      the next hop of its best path, the most disjoint alternate path from
      its RIB. A router that has lost its route deflects packets back to a
      neighbour that advertised a failover path; the deflected packet is
      then pinned to that path (virtual-interface semantics), so it is
      delivered iff every link of the path is up.
    - {b RCI}: updates triggered by a failure carry the root cause (the
      failed link or node). Receivers immediately purge every RIB entry
      whose path traverses the failed element and reject such paths in
      later updates, suppressing the exploration of stale paths. With
      [~rci:false] the purge is disabled and R-BGP degrades accordingly
      (the "R-BGP without RCI" bars of the paper).

    Simplifications relative to the full NSDI protocol are documented in
    DESIGN.md (design decision 8). *)

type t

val create :
  Sim.t ->
  Topology.t ->
  dest:Topology.vertex ->
  rci:bool ->
  ?mrai_base:float ->
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
(** The destination announces its prefix; run the sim to converge. *)

val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Fail a link at the current simulation time; adjacent routers react
    after the creation-time [detect_delay] (default 0) and learn the root
    cause; with RCI enabled they propagate it. *)

val fail_node : t -> Topology.vertex -> unit

val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Bring a link back: sessions re-establish, both ends re-advertise, and
    the link's root cause is cleared everywhere (routes through it are
    valid again). *)

val recover_node : t -> Topology.vertex -> unit
(** Bring a failed AS back: its links come up, sessions re-establish and
    neighbours re-announce. The node's root cause is cleared everywhere and
    the returning router restarts with empty RIBs and no known causes. *)

val deny_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Policy change: stop exporting to a neighbour. Withdrawals follow, of
    the failover path too when the neighbour is the best route's next
    hop. *)

val allow_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Revert {!deny_export}: the neighbour hears the current best route and
    failover path again. *)

val best : t -> Topology.vertex -> Route.t option

val failover_choices : t -> Topology.vertex -> Topology.vertex list list
(** The failover paths currently stored at an AS (each starts at the
    advertising neighbour), in the deterministic order the forwarding plane
    tries them. Exposed for tests. *)

val walk_all : t -> Fwd_walk.status array
(** Forwarding status of every AS under R-BGP forwarding: primary next hop
    when available, otherwise deflection onto a stored failover path.
    Incremental, like {!Bgp_net.walk_all}: the array may be shared with
    earlier calls and must not be mutated. *)

val fresh_walk : t -> Fwd_walk.status array
(** {!walk_all} from scratch, leaving the probe state untouched. *)

val message_count : t -> int
val last_change : t -> float
val counters : t -> Counters.t
val to_table : t -> Static_route.table
