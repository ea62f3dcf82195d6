(** Memoized forwarding-plane walker, from scratch or incremental.

    Given each AS's current forwarding behaviour — a step function mapping
    (vertex, packet state) to the next hop — compute, for {e every} source
    AS at once, whether a packet would reach the destination, loop, or be
    dropped. Packet state captures protocol-specific headers (the packet's
    colour and whether it was already re-coloured for STAMP, the deflection
    bit for the hybrid); plain BGP uses a single state.

    States and steps are int-coded: O(vertices × states) step calls and
    one byte of memo per (vertex, state) pair, a {e cell}. Each stepped
    cell has exactly one successor, so a walk is a functional graph.

    An incremental walker ({!t}) keeps that graph between walks: every
    stepped cell's code and the reverse edges as array-backed lists. A
    caller marks the vertices whose forwarding inputs it wrote
    ({!mark}); {!refresh} then re-steps only the marked vertices' cells
    and re-resolves only the upstream cone of the cells whose code
    changed. {!Session_core.probe} is the engines' use of it. *)

type status =
  | Delivered  (** the packet reaches the destination *)
  | Looped  (** the packet revisits a (vertex, state) pair *)
  | Blackholed  (** some AS on the way drops the packet *)

val equal_status : status -> status -> bool
val string_of_status : status -> string
val status_of_string : string -> status
(** The status names of trace [Status] events: ["delivered"], ["looped"]
    and ["blackholed"]. @raise Invalid_argument on any other string. *)

val pp_status : Format.formatter -> status -> unit

val drop : int
(** Step code: the AS drops the packet. *)

val deliver : int
(** Step code: the packet reaches the destination from here (used for
    pinned source-routed failover paths, whose intermediate hops don't
    consult their own tables). *)

val walk_all :
  n:int ->
  dest:Topology.vertex ->
  num_states:int ->
  start:(Topology.vertex -> int) ->
  step:(Topology.vertex -> int -> int) ->
  status array
(** [walk_all ~n ~dest ~num_states ~start ~step] walks from every vertex
    [v], starting in state [start v]. States are ints in
    [[0, num_states - 1]]. [step v s] returns {!drop}, {!deliver}, or
    [next * num_states + s'] to forward the packet to [next] in state
    [s']. The destination is [Delivered] for every state by definition.
    @raise Invalid_argument on [num_states < 1], a start state out of
    range, or a step code that is neither {!drop}, {!deliver} nor a
    (vertex, state) code. *)

(** {1 Incremental walks} *)

type t
(** An incremental walker over one step table. *)

val create :
  n:int ->
  dest:Topology.vertex ->
  num_states:int ->
  start:(Topology.vertex -> int) ->
  step:(Topology.vertex -> int -> int) ->
  t
(** A walker over [start] and [step], encoded as for {!walk_all}. Nothing
    is walked until the first {!refresh}.
    @raise Invalid_argument on [num_states < 1]. *)

val mark : t -> Topology.vertex -> unit
(** [mark t v]: [step v] or [start v] may have changed since the last
    {!refresh}. Once more than a fixed fraction of the vertices are
    marked, the next refresh walks everything again. *)

val mark_all : t -> unit
(** Any step may have changed: the next {!refresh} walks everything. *)

val refresh : t -> status array
(** The status of every vertex under the current step table, provided
    every vertex whose step or start state changed since the last refresh
    was marked. The first refresh, and the first after {!mark_all} or too
    many marks, walks from scratch; any other re-steps the marked
    vertices' cells and re-walks only the cells upstream of those whose
    code changed.

    The result is the very array the previous refresh returned exactly
    when no status changed, and a new array otherwise. No returned array
    is ever written again, so callers may keep it.
    @raise Invalid_argument as {!walk_all}. *)

val fresh : t -> status array
(** [walk_all] over [t]'s step table, leaving [t] untouched: the reference
    {!refresh} is checked against. *)
