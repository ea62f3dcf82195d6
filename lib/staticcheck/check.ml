type ctx = {
  topo : Topology.t;
  spec : Scenario.spec option;
  mrai_base : float option;
  detect_delay : float option;
}

let ctx ?spec ?mrai_base ?detect_delay topo =
  { topo; spec; mrai_base; detect_delay }

module type CHECK = sig
  val id : string
  val doc : string
  val run : ctx -> Diagnostic.t list
end
