let make ?(spread_unlocked_blue = false) ?(strategy = Coloring.Random_choice)
    ?(name = "STAMP") () : (module Engine.S) =
  let engine_name = name in
  (module struct
    include Stamp_net

    let name = engine_name

    let create sim topo ~dest (c : Engine.config) =
      (* the coloring draws from its own RNG seeded by config.seed, before
         Stamp_net.create consumes the simulation RNG — the historical
         make_driver order *)
      let coloring = Coloring.create strategy ~seed:c.seed topo ~dest in
      Stamp_net.create sim topo ~dest ~coloring ~mrai_base:c.mrai_base
        ~detect_delay:c.detect_delay ~spread_unlocked_blue ~trace:c.trace ()

    let probe = walk_all
  end)

let default = make ()
