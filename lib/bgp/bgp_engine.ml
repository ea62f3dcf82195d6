let engine : (module Engine.S) =
  (module struct
    type t = Bgp_net.t

    let name = "BGP"

    let create sim topo ~dest (c : Engine.config) =
      Bgp_net.create sim topo ~dest ~mrai_base:c.mrai_base
        ~delay_lo:c.delay_lo ~delay_hi:c.delay_hi
        ~detect_delay:c.detect_delay ~trace:c.trace ()

    let start = Bgp_net.start
    let fail_link = Bgp_net.fail_link
    let recover_link = Bgp_net.recover_link
    let fail_node = Bgp_net.fail_node
    let recover_node = Bgp_net.recover_node
    let deny_export = Bgp_net.deny_export
    let allow_export = Bgp_net.allow_export
    let probe = Bgp_net.walk_all
    let touch_fwd = Bgp_net.touch_fwd
    let message_count = Bgp_net.message_count
    let last_change = Bgp_net.last_change
    let counters = Bgp_net.counters
  end)
