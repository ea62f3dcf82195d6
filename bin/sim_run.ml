(* Run one failure scenario under one protocol and report the paper's
   metrics (transient problems, convergence delay, message counts).

     # random single-link scenario under STAMP on a generated topology
     dune exec bin/sim_run.exe -- --protocol stamp -n 1000

     # explicit scenario on a CAIDA relationship file
     dune exec bin/sim_run.exe -- --topo rel.txt --dest 64500 \
         --fail 64500:3356 --protocol bgp *)

open Cmdliner

let run (a : Scenario_cli.t) =
  let topo = Scenario_cli.topology a in
  Format.printf "topology: %a@." Topology.pp_stats topo;
  let spec = Scenario_cli.spec a topo in
  Format.printf "scenario: %a@." (Scenario.pp_spec topo) spec;
  let r = Runner.run ~seed:a.seed ~mrai_base:a.mrai a.protocol topo spec in
  Format.printf "protocol:            %s@." (Runner.protocol_name a.protocol);
  Format.printf "transient problems:  %d ASes@." r.Runner.transient_count;
  Format.printf "disconnected after:  %d ASes@." r.Runner.broken_after;
  Format.printf "convergence delay:   %.2f s@." r.Runner.convergence_delay;
  Format.printf "messages (initial):  %d@." r.Runner.messages_initial;
  Format.printf "messages (event):    %d@." r.Runner.messages_event;
  0

let cmd =
  let doc = "simulate a routing failure under BGP, R-BGP or STAMP" in
  Cmd.v
    (Cmd.info "sim_run" ~doc)
    Term.(const run $ Scenario_cli.term)

let () = exit (Cmd.eval' cmd)
