(** The STAMP protocol engine: two coordinated BGP processes per AS
    (Section 4 of the paper), the [Lock] and [ET] path attributes, and
    colour-aware packet forwarding (Section 5).

    Each AS runs a red and a blue process, one {!Process} each. Both are
    standard BGP processes (same decision process, valley-free export,
    per-peer-per-process MRAI, [10 ms, 20 ms] delays) except for the
    {e selective announcement} rules towards providers:

    - announcements to customers and peers proceed freely for both colours;
    - an AS holding a locked blue route re-announces its blue best, with
      [Lock] set, to exactly one provider (the first alive provider in its
      {!Coloring} preference order);
    - red routes take precedence on all remaining providers; unlocked blue
      fills providers for which no red route is available;
    - an AS with a {e single} provider that relays both colours from the
      same customer (a single-homed origin chain, paper footnote 4), or the
      single-homed origin itself, announces both colours to that provider —
      the initial colouring then happens at the first multi-homed ancestor.

    The [ET] attribute (1 bit per update: caused by a route loss or not)
    drives instability detection: a process whose best route is lost or
    replaced by an [ET=0] update is flagged unstable, and packets are
    switched to the other process, at most once per packet (Section 5.2). *)

type t

val create :
  Sim.t ->
  Topology.t ->
  dest:Topology.vertex ->
  coloring:Coloring.t ->
  ?mrai_base:float ->
  ?detect_delay:float ->
  ?spread_unlocked_blue:bool ->
  ?trace:Trace.sink ->
  unit ->
  t
(** [detect_delay] (default 0) postpones the adjacent routers' reaction to
    every subsequent {!fail_link} while the data plane is already broken
    (Theorem 5.1 only promises loop/blackhole freedom {e once the adjacent
    ASes have detected the event}: a positive delay opens a window in
    which even STAMP drops packets at the dead link, quantified by the
    `ablation` bench target).

    [spread_unlocked_blue] (default [false]) re-enables the propagation of
    unlocked blue routes to red-less providers — the paper permits but does
    not require it. Kept as an ablation switch: it couples the blue
    process to red churn and measurably worsens STAMP's transient counts
    (see DESIGN.md, design decision 6, and the `ablation` bench target). *)

val start : t -> unit
(** The destination originates its prefix on both processes. *)

(** {1 Failure injection} *)

val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Fail a link; the adjacent routers react after the creation-time
    [detect_delay] (default 0). *)

val fail_node : t -> Topology.vertex -> unit

val deny_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Policy change: stop exporting both colours to a neighbour (withdrawals
    follow immediately). *)

val allow_export : t -> Topology.vertex -> Topology.vertex -> unit
(** Revert {!deny_export}. *)

val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Bring a link back up: the sessions re-establish and both ends
    re-advertise per the current selective-announcement plan. A route
    addition event — by Lemma 3.1 it must cause no transient loops or
    failures, which the test suite checks. *)

val recover_node : t -> Topology.vertex -> unit
(** Bring a failed AS back: its links come up, the returning router
    restarts both processes from scratch, and every neighbour re-runs the
    selective-announcement plan — including the locked-blue-provider
    designation, which may move back onto a recovered provider. *)

(** {1 Observation} *)

val best : t -> Color.t -> Topology.vertex -> Route.t option
(** Current best route of one process at an AS. *)

val path : t -> Color.t -> Topology.vertex -> Topology.vertex list option
(** Full forwarding path [v :: as_path] of one process, if any. *)

val has_both : t -> Topology.vertex -> bool
(** Whether both processes currently hold a route at this AS. *)

val unstable : t -> Color.t -> Topology.vertex -> bool
(** Whether the process is currently flagged unstable at this AS (it
    received a loss-caused update or an adjacent failure on its best). *)

val walk_all : t -> Fwd_walk.status array
(** Colour-aware forwarding status of every AS: packets start in the
    colour of the source's preferred route, follow same-colour routes,
    and are re-coloured at most once when the current colour's route is
    missing, broken or unstable. Incremental, like {!Bgp_net.walk_all}: the array
    may be shared with earlier calls and must not be mutated. *)

val fresh_walk : t -> Fwd_walk.status array
(** {!walk_all} from scratch, leaving the probe state untouched. *)

val announced : t -> Color.t -> Topology.vertex -> (Topology.vertex * bool) list
(** The neighbours a process currently advertises a route to, with the
    [Lock] bit as sent, in increasing neighbour order. Exposed so tests can
    check the selective-announcement invariants (red and blue never to the
    same provider; at most one locked blue provider). *)

val message_count : t -> int
(** Updates sent across both processes (the paper's Section 6.3 overhead
    metric: expected below twice the BGP count). *)

val last_change : t -> float

val counters : t -> Counters.t
(** The engine's live {!Session_core} update counters (both processes). *)

val to_table : t -> Color.t -> Static_route.table
