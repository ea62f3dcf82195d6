(** One BGP routing process at one router: the per-neighbour state every
    engine in this repository keeps, and the operations they share.

    BGP and R-BGP run one process per router, STAMP one per colour. A
    protocol is written on this module plus {!Session_core}: the process
    owns {e what} the router knows and prefers (Adj-RIB-In, best route,
    what each neighbour last heard), the session core owns {e when} and
    {e whether} messages travel. The engine supplies only its attributes,
    import/export plan and extra state (failover paths, Lock/ET, backup
    tables).

    The process is polymorphic in its RIB entry ['e] — a {!Route.t}, or
    STAMP's route plus its Lock bit — projected to a {!Route.t} by the
    [route] function given to {!create}, and in what a neighbour hears,
    ['h] (an AS path, or a path plus Lock bit).

    Per-neighbour state is flat: both RIBs are arrays indexed by {e slot},
    a neighbour's index in [Topology.neighbors topo self]
    ({!Topology.slot}), so learning, withdrawing and advertising index an
    array instead of hashing. The entry in a neighbour's slot carries a
    path that starts at that neighbour. Every scan over the RIB
    ({!select}, {!alternate}, engines' purges) has a result independent
    of slot order: {!Decision.better} is a total order over routes with
    distinct next hops.

    {b Select cache.} [top] is the slot of the best Adj-RIB-In entry, [-1]
    on an empty RIB, or [-2] when {!select} must rescan. Every RIB write
    goes through this module (a lint rule keeps it so): {!learn} compares
    only the new entry with the cached best, and the cache goes stale only
    when the best's slot is withdrawn, forgotten, purged or replaced by a
    worse route. [better] being total over distinct next hops, a cached
    {!select} returns what a rescan would. *)

type ('e, 'h) t = private {
  self : Topology.vertex;  (** the router running the process *)
  route : 'e -> Route.t;  (** an entry's route *)
  flag : 'e -> bool;
  adj_rib_in : 'e option array;
      (** by slot: the route that neighbour currently announces *)
  rib_out : 'h option array;
      (** by slot: what that neighbour last heard; the engine writes it
          when {!Session_core.advertise} has it send something *)
  mutable best : 'e option;
  mutable top : int;  (** the select cache *)
  mutable flagged : int;  (** Adj-RIB-In entries satisfying [flag] *)
}

val create :
  ?flag:('e -> bool) ->
  Topology.vertex ->
  degree:int ->
  route:('e -> Route.t) ->
  ('e, 'h) t
(** An empty process at a router with [degree] neighbours (slots);
    [flag] defaults to none. *)

(** {1 Updating the RIBs} *)

val learn : ('e, 'h) t -> slot:int -> 'e -> unit
(** Store the announcement of the neighbour in [slot], or — when its path
    contains the router itself — drop that neighbour's previous route
    (implicit withdraw). *)

val withdraw : ('e, 'h) t -> slot:int -> unit
(** The neighbour in [slot] withdrew its route. *)

val forget : ('e, 'h) t -> slot:int -> unit
(** Session reset with the neighbour in [slot]: its route and the record
    of what it heard both go. *)

val clear : ('e, 'h) t -> unit
(** Node failure: empty both RIBs and lose the best route. *)

val purge : ('e, 'h) t -> drop:('e -> bool) -> unit
(** Withdraw every Adj-RIB-In entry satisfying [drop] (R-BGP's root-cause
    purge). *)

val entry : ('e, 'h) t -> slot:int -> 'e option
(** The Adj-RIB-In entry of the neighbour in [slot]. *)

(** {1 Decision} *)

val select : ('e, 'h) t -> 'e option
(** The Adj-RIB-In entry whose route is best by {!Decision.better};
    [None] on an empty RIB. Entries come from distinct neighbours, so the
    result does not depend on slot order. The result is the stored
    option itself: an unchanged best is physically the last one. *)

val decide :
  prefix:string -> ('e, 'h) t -> 'm Session_core.t -> 'e option -> bool
(** [decide ~prefix p core best'] installs [best'] when it differs
    structurally from the current best (tested physically first), reports
    the change with {!Session_core.note_decision} (cause ["route-loss"],
    ["route-learned"] or ["route-change"], after [prefix]) and returns
    whether it changed. *)

val alternate :
  ?admit:('e -> bool) -> ('e, 'h) t -> score:('e -> int) -> 'e option
(** The alternate to the best route: among the RIB entries not learned
    from the best route's next hop and satisfying [admit] (default: all),
    the one of lowest [score], ties broken by {!Decision.better}. [None]
    when there is no best route or no candidate. *)

val next_hop : ('e, 'h) t -> Topology.vertex
(** The best route's next hop; [-1] without a route and at the origin. *)

(** {1 Export} *)

val exportable :
  ('e, 'h) t -> to_:Topology.vertex -> to_rel:Relationship.t -> bool
(** Whether a neighbour of relationship [to_rel] may hear the best route
    under valley-free export ({!Export.exportable}): there is one, and it
    was not learned from that neighbour. *)

val advertise :
  ('e, Topology.vertex list) t ->
  'm Session_core.t ->
  slot:int ->
  to_:Topology.vertex ->
  to_rel:Relationship.t ->
  deny:bool ->
  Session_core.verdict
(** {!Session_core.advertise} to the neighbour in [slot], which hears
    [self :: as_path] when {!exportable} and not [deny]-ed. On [Announce]
    or [Withdraw] the RIB-Out already records the path to send, or
    nothing. *)

(** {1 Forwarding} *)

val hop_up : Link_state.t -> Topology.vertex -> Route.t -> int
(** [hop_up links v route]: the next hop of a route held at [v] when the
    link to it is up, otherwise [-1] (also for the origin route).
    Allocation-free, for forwarding steps. *)

val next_hop_up : ('e, 'h) t -> Link_state.t -> int
(** {!hop_up} on the best route; [-1] without one. *)

val table : ('e, 'h) t array -> Static_route.table
(** Every process's best route, in the oracle's table format, for direct
    comparison with {!Static_route.compute}. *)
