let make ~rci:rci_enabled ~name:engine_name : (module Engine.S) =
  (module struct
    type t = Rbgp_net.t

    let name = engine_name

    let create sim topo ~dest (c : Engine.config) =
      Rbgp_net.create sim topo ~dest ~rci:rci_enabled ~mrai_base:c.mrai_base
        ~delay_lo:c.delay_lo ~delay_hi:c.delay_hi
        ~detect_delay:c.detect_delay ~trace:c.trace ()

    let start = Rbgp_net.start
    let fail_link = Rbgp_net.fail_link
    let recover_link = Rbgp_net.recover_link
    let fail_node = Rbgp_net.fail_node
    let recover_node = Rbgp_net.recover_node
    let deny_export = Rbgp_net.deny_export
    let allow_export = Rbgp_net.allow_export
    let probe = Rbgp_net.walk_all
    let touch_fwd = Rbgp_net.touch_fwd
    let message_count = Rbgp_net.message_count
    let last_change = Rbgp_net.last_change
    let counters = Rbgp_net.counters
  end)

let no_rci = make ~rci:false ~name:"R-BGP without RCI"
let rci = make ~rci:true ~name:"R-BGP"
