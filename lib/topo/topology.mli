(** AS-level Internet topology: ASes connected by links annotated with
    business relationships.

    Vertices are dense integers in [[0, num_vertices - 1]]; every vertex
    carries an external AS number (arbitrary positive integer) used for I/O
    and display. The structure is immutable once built — link and node
    failures are modelled by the simulator as overlays, never by mutating
    the topology. *)

type vertex = int
(** Dense vertex index in [[0, num_vertices - 1]]. *)

type t

(** {1 Construction} *)

module Builder : sig
  type topology := t

  type t
  (** Mutable accumulator of AS links. *)

  val create : unit -> t

  val add_p2c : t -> provider:int -> customer:int -> unit
  (** Record a provider→customer link between two external AS numbers.
      Duplicate consistent declarations are ignored.
      @raise Invalid_argument if the link was already declared with a
      different relationship, or if [provider = customer]. *)

  val add_p2p : t -> int -> int -> unit
  (** Record a peer–peer link. Same duplicate rules as {!add_p2c}. *)

  val add_sibling : t -> int -> int -> unit
  (** Record a sibling (mutual transit) link. *)

  val build : t -> topology
  (** Intern AS numbers into dense vertices and freeze the topology. *)
end

(** {1 Size and identity} *)

val num_vertices : t -> int

val vertices : t -> vertex array
(** All vertices, in increasing index order. A fresh array per call. *)

val asn : t -> vertex -> int
(** External AS number of a vertex. *)

val vertex_of_asn : t -> int -> vertex option
(** Inverse of {!asn}. *)

(** {1 Adjacency} *)

val neighbors : t -> vertex -> (vertex * Relationship.t) array
(** All neighbours of a vertex, in increasing vertex order, together with
    their relationship {e as seen from that vertex}: [(v, Provider)] means
    [v] is a provider of the queried vertex. The returned array is shared;
    do not mutate. *)

val providers : t -> vertex -> vertex array
(** Providers of a vertex (shared array; do not mutate). *)

val customers : t -> vertex -> vertex array
(** Customers of a vertex (shared array; do not mutate). *)

val peers : t -> vertex -> vertex array
(** Peers of a vertex (shared array; do not mutate). *)

val rel : t -> vertex -> vertex -> Relationship.t option
(** [rel t u v] is the relationship of [v] as seen from [u], if the link
    exists. A binary search over [neighbors t u]. *)

(** {2 Slots and directed-edge ids}

    Per-neighbour state is kept in flat arrays rather than hash tables. A
    {e slot} is a neighbour's index in {!neighbors}: [w]'s slot at [v] is
    [i] iff [fst (neighbors t v).(i) = w]. Every directed adjacency
    [(v, w)] also has a dense {e edge id} in [[0, num_edges t)]:
    [first_edge t v + slot t v w]. Ids follow vertices × neighbours order,
    so iterating vertices then {!neighbors} visits edge ids in increasing
    order. *)

val slot : t -> vertex -> vertex -> int
(** [slot t v w] is [w]'s index in [neighbors t v], or [-1] when the two
    are not adjacent. A binary search; allocation-free. *)

val num_edges : t -> int
(** Number of directed adjacencies: twice {!num_links}. *)

val first_edge : t -> vertex -> int
(** Edge id of [v]'s slot 0; [v]'s adjacency ids are
    [first_edge t v .. first_edge t v + degree t v - 1]. *)

val edge : t -> vertex -> vertex -> int
(** Edge id of the directed adjacency [(v, w)], or [-1] when the two are
    not adjacent. *)

val degree : t -> vertex -> int
(** Total number of neighbours. *)

val num_links : t -> int
(** Number of undirected AS links. *)

(** {1 Classification} *)

val is_tier1 : t -> vertex -> bool
(** A tier-1 AS has no providers. *)

val tier1s : t -> vertex array
(** All tier-1 vertices (shared array; do not mutate). *)

val is_multi_homed : t -> vertex -> bool
(** At least two providers. *)

val multi_homed : t -> vertex array
(** All multi-homed vertices (shared array; do not mutate). *)

val is_stub : t -> vertex -> bool
(** No customers. *)

(** {1 Validation} *)

val provider_dag_is_acyclic : t -> bool
(** Check the Gao–Rexford safety precondition: the directed
    customer→provider graph has no cycle ("the provider of any AS cannot be
    a customer of that AS' customers, and so on"). Sibling links are ignored
    by this check. *)

val is_connected : t -> bool
(** Whether the underlying undirected graph is connected. *)

val all_reach_tier1 : t -> bool
(** Whether every vertex has an all-uphill (customer→provider) path to some
    tier-1 AS — required for global reachability under valley-free export. *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: vertex count, link count by kind, tier-1 count, etc. *)
