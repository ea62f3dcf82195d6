(** IPv4 prefixes — the objects BGP actually announces.

    The simulators in this repository are per-destination-AS (routing under
    Gao–Rexford policies is independent across prefixes), but the
    data-plane machinery ({!Lpm} forwarding tables) works on real prefixes
    and addresses. *)

type t
(** A prefix in canonical form: host bits are zero. *)

val make : int32 -> int -> t
(** [make addr len] with [len] in [[0, 32]]; host bits of [addr] are
    silently cleared. @raise Invalid_argument on a bad length. *)

val of_string : string -> t
(** Parse ["a.b.c.d/len"] (or a bare address, read as a /32).
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val addr_of_string : string -> int32
(** Parse a dotted-quad address. @raise Invalid_argument if malformed. *)

val addr_to_string : int32 -> string

val network : t -> int32
val length : t -> int

val mem : t -> int32 -> bool
(** Whether an address falls inside the prefix. *)

val subsumes : t -> t -> bool
(** [subsumes p q] iff every address of [q] lies in [p] (and [p] is no
    longer than [q]). *)

val compare : t -> t -> int
(** Total order: by network address, then by length. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val of_asn : int -> t
(** Deterministic /24 assigned to an AS number for simulation purposes:
    ASN [a] owns [10.(a lsr 8).(a land 255).0/24]. Distinct ASNs below
    65536 receive disjoint prefixes.
    @raise Invalid_argument for ASNs outside [[1, 65535]]. *)

val random_member : Random.State.t -> t -> int32
(** A uniformly random address inside the prefix. *)
