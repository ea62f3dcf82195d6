(** {!Bgp_net} packed as first-class {!Engine.S} values. *)

val engine : (module Engine.S)
(** Plain BGP, named ["BGP"]. *)

val hybrid :
  ?name:string ->
  deployed:(Topology.vertex -> bool) ->
  unit ->
  (module Engine.S)
(** BGP with STAMP partially deployed: the [deployed] ASes keep a backup
    route ({!Bgp_net.backup}). Named ["STAMP-BGP hybrid"] by default. *)

val hybrid_full : (module Engine.S)
(** {!hybrid} with every AS upgraded, named
    ["STAMP-BGP hybrid (full deployment)"] and listed in [Runner.engines]
    so the generic suites exercise the hybrid lifecycle alongside the four
    paper engines. *)
