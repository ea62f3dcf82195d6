let make ~rci:rci_enabled ~name:engine_name : (module Engine.S) =
  (module struct
    include Rbgp_net

    let name = engine_name

    let create sim topo ~dest (c : Engine.config) =
      Rbgp_net.create sim topo ~dest ~rci:rci_enabled ~mrai_base:c.mrai_base
        ~detect_delay:c.detect_delay ~trace:c.trace ()

    let probe = walk_all
  end)

let no_rci = make ~rci:false ~name:"R-BGP without RCI"
let rci = make ~rci:true ~name:"R-BGP"
