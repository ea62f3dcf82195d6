(** Text I/O for AS topologies and AS-path data sets.

    Two formats are supported, so real data (CAIDA AS-relationship files,
    AS paths extracted from RouteViews table dumps) can replace the
    synthetic generator as the experiment substrate:

    - {b relationship files} (CAIDA "serial-1"): one link per line,
      [<asn>|<asn>|<code>] with code [-1] for provider→customer (first AS
      is the provider), [0] for peer–peer, and [2] for sibling; [#] starts
      a comment;
    - {b path files}: one AS path per line, AS numbers separated by
      whitespace, vantage point first, origin last; [#] starts a comment. *)

val parse_relationships : string -> Topology.t
(** Parse the content of a relationship file.
    @raise Invalid_argument on malformed lines (with line number). *)

val load_relationships : string -> Topology.t
(** [load_relationships path] reads and parses a relationship file.
    @raise Sys_error if the file cannot be read. *)

val relationships_to_string : Topology.t -> string
(** Serialize a topology to the relationship format. Round-trips with
    {!parse_relationships} (up to line order). *)

val save_relationships : Topology.t -> string -> unit
(** Write {!relationships_to_string} output to a file. *)

val parse_paths : string -> int list list
(** Parse the content of a path file. Empty lines are skipped; consecutive
    duplicate ASNs (prepending) are preserved verbatim.
    @raise Invalid_argument on non-numeric tokens (with line number). *)

val load_paths : string -> int list list
(** [load_paths path] reads and parses a path file. *)

val save_paths : int list list -> string -> unit
(** Write AS paths to a file, one per line. Round-trips with
    {!load_paths}. *)
