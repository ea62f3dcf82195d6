let make ?(spread_unlocked_blue = false) ?(strategy = Coloring.Random_choice)
    ?(name = "STAMP") () : (module Engine.S) =
  let engine_name = name in
  (module struct
    type t = Stamp_net.t

    let name = engine_name

    let create sim topo ~dest (c : Engine.config) =
      (* the coloring draws from its own RNG seeded by config.seed, before
         Stamp_net.create consumes the simulation RNG — the historical
         make_driver order *)
      let coloring = Coloring.create strategy ~seed:c.seed topo ~dest in
      Stamp_net.create sim topo ~dest ~coloring ~mrai_base:c.mrai_base
        ~delay_lo:c.delay_lo ~delay_hi:c.delay_hi
        ~detect_delay:c.detect_delay ~spread_unlocked_blue ~trace:c.trace ()

    let start = Stamp_net.start
    let fail_link = Stamp_net.fail_link
    let recover_link = Stamp_net.recover_link
    let fail_node = Stamp_net.fail_node
    let recover_node = Stamp_net.recover_node
    let deny_export = Stamp_net.deny_export
    let allow_export = Stamp_net.allow_export
    let probe = Stamp_net.walk_all
    let touch_fwd = Stamp_net.touch_fwd
    let message_count = Stamp_net.message_count
    let last_change = Stamp_net.last_change
    let counters = Stamp_net.counters
  end)

let default = make ()
