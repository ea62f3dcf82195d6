(** Routes as stored in a router's Adj-RIB-In.

    A route held by router [v] and learned from neighbour [u] has
    [as_path = u :: ... :: dest]; its [cls] is the business relationship of
    [u] as seen from [v], which determines local preference
    (prefer-customer). The destination's own route has an empty path and
    class [Customer]. *)

type t = private {
  as_path : Topology.vertex list;
      (** first element is the neighbour the route was learned from; last
          is the destination; empty only for the destination's own route *)
  cls : Relationship.t;
      (** relationship of the first path element as seen from the route's
          owner; [Customer] for a self-originated route *)
  length : int;  (** of [as_path], kept so the decision walks no list *)
}

val make : cls:Relationship.t -> Topology.vertex list -> t
(** The route with this class and AS path. *)

val origin : t
(** The destination's route to itself: empty path, customer class. *)

val learned_from : t -> Topology.vertex option
(** Head of the path; [None] for the origin route. *)

val contains : t -> Topology.vertex -> bool
(** Loop check: whether a vertex appears in the path. *)

val pp : Format.formatter -> t -> unit
