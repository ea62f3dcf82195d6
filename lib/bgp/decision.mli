(** The BGP decision process shared by every protocol engine in this
    repository: higher local preference (prefer-customer), then shorter AS
    path, then lowest next-hop vertex. Matches {!Static_route.better}. *)

val better : Route.t -> Route.t -> bool
(** [better a b] iff [a] beats [b]. Total and antisymmetric for routes with
    distinct next hops; the origin route beats everything. *)

val select : Route.t list -> Route.t option
(** Best route of a candidate list ([None] on the empty list). *)
