let make ?(name = "STAMP-BGP hybrid") ~deployed () : (module Engine.S) =
  let engine_name = name in
  (module struct
    type t = Hybrid_net.t

    let name = engine_name

    let create sim topo ~dest (c : Engine.config) =
      Hybrid_net.create sim topo ~dest ~deployed ~mrai_base:c.mrai_base
        ~delay_lo:c.delay_lo ~delay_hi:c.delay_hi
        ~detect_delay:c.detect_delay ~trace:c.trace ()

    let start = Hybrid_net.start
    let fail_link = Hybrid_net.fail_link
    let recover_link = Hybrid_net.recover_link
    let fail_node = Hybrid_net.fail_node
    let recover_node = Hybrid_net.recover_node
    let deny_export = Hybrid_net.deny_export
    let allow_export = Hybrid_net.allow_export
    let probe = Hybrid_net.walk_all
    let touch_fwd = Hybrid_net.touch_fwd
    let message_count = Hybrid_net.message_count
    let last_change = Hybrid_net.last_change
    let counters = Hybrid_net.counters
  end)

let full =
  make ~name:"STAMP-BGP hybrid (full deployment)" ~deployed:(fun _ -> true) ()
