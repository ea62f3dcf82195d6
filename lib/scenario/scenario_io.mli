(** Text I/O for scenario specifications, so workloads can be written
    down, shipped under [examples/], and linted by [bin/stamp_check]
    without running a simulation.

    Format — one directive per line, [#] starts a comment:

    {v
    dest <asn>                  # required, exactly once
    detect <seconds>            # optional detect_delay override
    fail_link <asn> <asn>
    fail_node <asn>
    deny_export <asn> <asn>
    recover_link <asn> <asn>
    recover_node <asn>
    allow_export <asn> <asn>
    at <seconds> <event...>     # timed wrapper, nestable
    v}

    Events appear in file order. AS numbers are resolved against the
    accompanying topology; the parser only requires the ASes to exist —
    semantic problems (a failed link that is not in the topology,
    recovering a link that never failed, out-of-range delays) are the
    static analyzer's [scenario.sanity] check's job, so a questionable
    scenario can still be parsed and diagnosed. *)

val parse : Topology.t -> string -> Scenario.spec
(** Parse the content of a scenario file against a topology.
    @raise Invalid_argument on malformed lines, unknown AS numbers, a
    missing or duplicate [dest] directive (with line numbers). *)

val load : Topology.t -> string -> Scenario.spec
(** [load topo path] reads and parses a scenario file.
    @raise Sys_error if the file cannot be read. *)

val to_string : Topology.t -> Scenario.spec -> string
(** Serialize a spec to the scenario format. Round-trips with {!parse}. *)
