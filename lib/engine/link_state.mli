(** Failure overlay over an immutable topology: the set of links and nodes
    currently down. Shared by every protocol engine; the topology itself is
    never mutated. *)

type t

val create : Topology.t -> t
(** Everything up. *)

val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
(** Both are idempotent.
    @raise Invalid_argument if the vertices are not adjacent. *)

val fail_node : t -> Topology.vertex -> unit
val recover_node : t -> Topology.vertex -> unit

val link_up : t -> Topology.vertex -> Topology.vertex -> bool
(** Whether a link is usable: neither endpoint down, link not failed.
    Costs a {!Topology.edge} lookup only while some link is down. *)

val node_up : t -> Topology.vertex -> bool

val failed_links : t -> (Topology.vertex * Topology.vertex) list
(** Currently failed links (canonical order, smaller vertex first). *)
