(** {!Hybrid_net} packed as a first-class {!Engine.S}. {!make} closes over
    the deployment predicate; {!full}, named
    ["STAMP-BGP hybrid (full deployment)"], is listed in [Runner.engines] so
    the conformance suite exercises the hybrid lifecycle alongside the four
    paper engines. *)

val full : (module Engine.S)

val make :
  ?name:string ->
  deployed:(Topology.vertex -> bool) ->
  unit ->
  (module Engine.S)
(** A hybrid engine at the given deployment. *)
