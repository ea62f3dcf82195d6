let make ~name:engine_name ?deployed () : (module Engine.S) =
  (module struct
    include Bgp_net

    let name = engine_name

    let create sim topo ~dest (c : Engine.config) =
      Bgp_net.create sim topo ~dest ?deployed ~mrai_base:c.mrai_base
        ~detect_delay:c.detect_delay ~trace:c.trace ()

    let probe = walk_all
  end)

let engine = make ~name:"BGP" ()

let hybrid ?(name = "STAMP-BGP hybrid") ~deployed () =
  make ~name ~deployed ()

let hybrid_full =
  hybrid ~name:"STAMP-BGP hybrid (full deployment)" ~deployed:(fun _ -> true) ()
