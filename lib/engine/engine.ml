type config = {
  seed : int;
  mrai_base : float;
  detect_delay : float;
  trace : Trace.sink;
}

let default_config =
  { seed = 0; mrai_base = 30.; detect_delay = 0.; trace = Trace.null }

module type S = sig
  type t

  val name : string
  val create : Sim.t -> Topology.t -> dest:Topology.vertex -> config -> t
  val start : t -> unit
  val fail_link : t -> Topology.vertex -> Topology.vertex -> unit
  val recover_link : t -> Topology.vertex -> Topology.vertex -> unit
  val fail_node : t -> Topology.vertex -> unit
  val recover_node : t -> Topology.vertex -> unit
  val deny_export : t -> Topology.vertex -> Topology.vertex -> unit
  val allow_export : t -> Topology.vertex -> Topology.vertex -> unit
  val probe : t -> Fwd_walk.status array
  val fresh_walk : t -> Fwd_walk.status array
  val message_count : t -> int
  val last_change : t -> float
  val counters : t -> Counters.t
end

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let create (module E : S) sim topo ~dest config =
  Instance ((module E), E.create sim topo ~dest config)

let name (Instance ((module E), _)) = E.name
let start (Instance ((module E), t)) = E.start t
let fail_link (Instance ((module E), t)) u v = E.fail_link t u v
let recover_link (Instance ((module E), t)) u v = E.recover_link t u v
let fail_node (Instance ((module E), t)) v = E.fail_node t v
let recover_node (Instance ((module E), t)) v = E.recover_node t v
let deny_export (Instance ((module E), t)) u v = E.deny_export t u v
let allow_export (Instance ((module E), t)) u v = E.allow_export t u v
let probe (Instance ((module E), t)) = E.probe t
let fresh_walk (Instance ((module E), t)) = E.fresh_walk t
let message_count (Instance ((module E), t)) = E.message_count t
let last_change (Instance ((module E), t)) = E.last_change t
let counters (Instance ((module E), t)) = E.counters t
