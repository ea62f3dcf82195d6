(** Generic memoized forwarding-plane walker.

    Given each AS's current forwarding behaviour — a step function mapping
    (vertex, packet state) to the next hop — compute, for {e every} source
    AS at once, whether a packet would reach the destination, loop, or be
    dropped. Packet state captures protocol-specific headers (the packet's
    colour and whether it was already re-coloured for STAMP, the deflection
    bit for the hybrid); plain BGP uses a single state.

    States and steps are int-coded so a walk allocates nothing but its
    byte memo and the result array: O(vertices × states) step calls and
    one byte of memo per (vertex, state) pair. Engines cache the result
    between forwarding changes ({!Session_core.cached_walk}), so a probe
    that follows no such change costs nothing. *)

type status =
  | Delivered  (** the packet reaches the destination *)
  | Looped  (** the packet revisits a (vertex, state) pair *)
  | Blackholed  (** some AS on the way drops the packet *)

val equal_status : status -> status -> bool
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
