(* Tests for the event-driven BGP engine: decision process, export policy,
   MRAI behaviour, convergence to the static oracle, and failure
   reactions. *)

let diamond = Test_support.diamond
let diamond_plus = Test_support.diamond_plus
let vtx = Test_support.vtx

(* --- Decision --------------------------------------------------------- *)

let route path cls = Route.make ~cls path

let test_decision_prefers_customer () =
  let customer = route [ 9; 0 ] Relationship.Customer in
  let peer = route [ 1; 0 ] Relationship.Peer in
  Alcotest.(check bool) "customer beats shorter peer" true
    (Decision.better customer peer);
  Alcotest.(check bool) "antisymmetric" false (Decision.better peer customer)

let test_decision_shorter_path () =
  let short = route [ 5; 0 ] Relationship.Provider in
  let long = route [ 2; 3; 0 ] Relationship.Provider in
  Alcotest.(check bool) "shorter wins" true (Decision.better short long)

let test_decision_lowest_next_hop () =
  let a = route [ 2; 0 ] Relationship.Peer in
  let b = route [ 7; 0 ] Relationship.Peer in
  Alcotest.(check bool) "lowest next hop" true (Decision.better a b)

let test_decision_origin_wins () =
  Alcotest.(check bool) "origin" true
    (Decision.better Route.origin (route [ 2; 0 ] Relationship.Customer))

let test_decision_select () =
  let rs =
    [
      route [ 9; 0 ] Relationship.Provider;
      route [ 3; 0 ] Relationship.Customer;
      route [ 1; 0 ] Relationship.Peer;
    ]
  in
  match Decision.select rs with
  | Some r -> Alcotest.(check (list int)) "selects customer" [ 3; 0 ] r.Route.as_path
  | None -> Alcotest.fail "no selection"

let test_decision_select_empty () =
  Alcotest.(check bool) "empty" true (Decision.select [] = None)

(* --- Export ------------------------------------------------------------ *)

let test_export_matrix () =
  let chk route_cls to_rel expected =
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s"
         (Relationship.to_string route_cls)
         (Relationship.to_string to_rel))
      expected
      (Export.allowed ~route_cls ~to_rel)
  in
  (* customer routes go everywhere *)
  chk Relationship.Customer Relationship.Customer true;
  chk Relationship.Customer Relationship.Peer true;
  chk Relationship.Customer Relationship.Provider true;
  (* peer routes only to customers *)
  chk Relationship.Peer Relationship.Customer true;
  chk Relationship.Peer Relationship.Peer false;
  chk Relationship.Peer Relationship.Provider false;
  (* provider routes only to customers *)
  chk Relationship.Provider Relationship.Customer true;
  chk Relationship.Provider Relationship.Peer false;
  chk Relationship.Provider Relationship.Provider false

(* --- MRAI: per-peer timers of 30 s × U[0.75, 1.0] ------------------------ *)

let advertise = Test_support.advertise

let test_mrai_interval_range () =
  (* AS 1 above 100 customers: each session's timer is deferred right
     after its first announcement at time 0, so its flush fires after
     exactly its interval *)
  let b = Topology.Builder.create () in
  for c = 2 to 101 do
    Topology.Builder.add_p2c b ~provider:1 ~customer:c
  done;
  let t = Topology.Builder.build b in
  let sim, core, _ = Test_support.session_core t in
  let src = Test_support.vtx t 1 in
  let rib_out = Array.make 100 None in
  let flushes = ref [] in
  let retry () = flushes := Sim.now sim :: !flushes in
  for slot = 0 to 99 do
    advertise core ~src ~slot ~rib_out (Some 1) ~retry;
    advertise core ~src ~slot ~rib_out (Some 2) ~retry
  done;
  Sim.run sim;
  Alcotest.(check int) "one flush per session" 100 (List.length !flushes);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "interval %.2f in [22.5, 30]" i)
        true
        (i >= 22.5 && i <= 30.))
    !flushes

let test_mrai_gating () =
  let t = Test_support.chain 2 in
  let sim, core, received = Test_support.session_core t in
  let src = Test_support.vtx t 1 and rib_out = [| None |] in
  let desired = ref (Some 1) in
  let rec go () = advertise core ~src ~slot:0 ~rib_out !desired ~retry:go in
  go ();
  (* blocked at once and 1 s later; the single flush sends what is
     desired when it fires *)
  desired := Some 2;
  go ();
  Sim.schedule sim ~delay:1. (fun _ ->
      desired := Some 3;
      go ());
  Sim.run sim;
  let c = Session_core.counters core in
  Alcotest.(check int) "deferrals" 2 c.Counters.mrai_deferrals;
  match received () with
  | [ (1, a); (3, b) ] ->
    Alcotest.(check bool) "initially ready" true (a <= 0.020);
    Alcotest.(check bool)
      (Printf.sprintf "ready after the interval (%.2f)" b)
      true
      (b >= 22.5 && b <= 30.020)
  | _ -> Alcotest.fail "expected announcements 1 then 3"

let test_mrai_zero_base () =
  let t = Test_support.chain 2 in
  let sim, core, received = Test_support.session_core ~mrai_base:0. t in
  let src = Test_support.vtx t 1 and rib_out = [| None |] in
  let retry () = Alcotest.fail "no flush expected" in
  Sim.schedule sim ~delay:5. (fun _ ->
      advertise core ~src ~slot:0 ~rib_out (Some 1) ~retry;
      advertise core ~src ~slot:0 ~rib_out (Some 2) ~retry);
  Sim.run sim;
  Alcotest.(check int) "no rate limit" 0
    (Session_core.counters core).Counters.mrai_deferrals;
  Alcotest.(check (list int)) "both sent" [ 1; 2 ] (List.map fst (received ()))

(* --- Convergence to the oracle ----------------------------------------- *)

let table_equal t (a : Static_route.table) (b : Static_route.table) =
  let n = Topology.num_vertices t in
  let ok = ref true in
  for v = 0 to n - 1 do
    (match (a.(v), b.(v)) with
    | None, None -> ()
    | Some ea, Some eb
      when ea.Static_route.as_path = eb.Static_route.as_path
           && Relationship.equal ea.Static_route.cls eb.Static_route.cls ->
      ()
    | _ -> ok := false)
  done;
  !ok

let test_converges_to_oracle_diamond () =
  let t = diamond_plus () in
  Array.iter
    (fun dest ->
      let _, net = Test_support.converge_bgp t ~dest in
      let oracle = Static_route.compute t ~dest in
      Alcotest.(check bool)
        (Printf.sprintf "dest %d" (Topology.asn t dest))
        true
        (table_equal t oracle (Bgp_net.to_table net)))
    (Topology.vertices t)

let prop_sim_matches_oracle =
  Test_support.qtest ~count:15
    "event-driven BGP converges to the static fixed point"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 7 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let _, net = Test_support.converge_bgp t ~dest in
      let oracle = Static_route.compute t ~dest in
      table_equal t oracle (Bgp_net.to_table net))

let test_all_delivered_after_convergence () =
  let t = diamond_plus () in
  let _, net = Test_support.converge_bgp t ~dest:(vtx t 4) in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "delivered" true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Bgp_net.walk_all net)

(* --- Failure handling ---------------------------------------------------- *)

let test_link_failure_reroutes () =
  let t = diamond () in
  let dest = vtx t 3 in
  let sim, net = Test_support.converge_bgp t ~dest in
  (* initial: 10 routes via 1 *)
  Alcotest.(check bool) "initial next hop" true
    (Bgp_net.next_hop net (vtx t 10) = Some (vtx t 1));
  Bgp_net.fail_link net (vtx t 1) (vtx t 3);
  Sim.run sim;
  (* after failure 1 has no route to 3 (valley-free forbids 1-10-20-2-3?
     no: that is provider route 1 <- 10: 10's route after failure is via
     peer 20: peer routes are not exported to customer 1? They are:
     peer/provider routes export to customers. So 1 gets 10-20-2-3. *)
  Alcotest.(check bool) "1 reroutes via provider" true
    (Bgp_net.next_hop net (vtx t 1) = Some (vtx t 10));
  Array.iter
    (fun s ->
      Alcotest.(check bool) "delivered after reconvergence" true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Bgp_net.walk_all net)

let test_link_failure_matches_oracle_of_pruned_topology () =
  (* after the failure, the converged state must equal the oracle computed
     on the topology without that link *)
  let t = diamond_plus () in
  let dest = vtx t 4 in
  let sim, net = Test_support.converge_bgp t ~dest in
  Bgp_net.fail_link net (vtx t 2) (vtx t 3);
  Sim.run sim;
  (* pruned topology: rebuild without 2-3 *)
  let b = Topology.Builder.create () in
  Topology.Builder.add_p2p b 10 20;
  Topology.Builder.add_p2c b ~provider:10 ~customer:1;
  Topology.Builder.add_p2c b ~provider:20 ~customer:2;
  Topology.Builder.add_p2c b ~provider:1 ~customer:3;
  Topology.Builder.add_p2p b 1 2;
  Topology.Builder.add_p2c b ~provider:3 ~customer:4;
  let t' = Topology.Builder.build b in
  let oracle = Static_route.compute t' ~dest:(vtx t' 4) in
  (* compare paths as ASN lists since vertex numbering may differ *)
  Array.iter
    (fun v ->
      let asn = Topology.asn t' v in
      let expect =
        Option.map (List.map (Topology.asn t'))
          (Static_route.path_from oracle v)
      in
      let got_v = Test_support.vtx t asn in
      let got =
        match Bgp_net.best net got_v with
        | None -> None
        | Some r -> Some (List.map (Topology.asn t) (got_v :: r.Route.as_path))
      in
      Alcotest.(check (option (list int)))
        (Printf.sprintf "AS %d" asn)
        expect got)
    (Topology.vertices t')

let test_node_failure_withdraws () =
  let t = diamond_plus () in
  let dest = vtx t 4 in
  let sim, net = Test_support.converge_bgp t ~dest in
  (* 3 is the only way to 4: failing 3 disconnects everyone *)
  Bgp_net.fail_node net (vtx t 3);
  Sim.run sim;
  Array.iter
    (fun v ->
      if v <> dest && v <> vtx t 3 then
        Alcotest.(check bool)
          (Printf.sprintf "AS %d unreachable" (Topology.asn t v))
          true
          (Bgp_net.best net v = None))
    (Topology.vertices t)

let test_link_recovery_restores () =
  let t = diamond () in
  let dest = vtx t 3 in
  let sim, net = Test_support.converge_bgp t ~dest in
  Bgp_net.fail_link net (vtx t 1) (vtx t 3);
  Sim.run sim;
  Bgp_net.recover_link net (vtx t 1) (vtx t 3);
  Sim.run sim;
  let oracle = Static_route.compute t ~dest in
  Alcotest.(check bool) "back to original fixed point" true
    (table_equal t oracle (Bgp_net.to_table net))

let test_transient_problems_during_convergence () =
  (* during reconvergence after a failure, some AS must transiently lose
     delivery in plain BGP on this topology: 1 keeps pointing at dead link
     until it learns the alternative *)
  let t = diamond () in
  let dest = vtx t 3 in
  let sim, net = Test_support.converge_bgp t ~dest in
  Bgp_net.fail_link net (vtx t 1) (vtx t 3);
  (* immediately after the failure event, before any messages propagate *)
  let statuses = Bgp_net.walk_all net in
  Alcotest.(check bool) "AS 10 transiently broken" true
    (not (Fwd_walk.equal_status statuses.(vtx t 10) Fwd_walk.Delivered));
  Sim.run sim;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "eventually delivered" true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Bgp_net.walk_all net)

let test_message_counting () =
  let t = diamond () in
  let _, net = Test_support.converge_bgp t ~dest:(vtx t 3) in
  Alcotest.(check bool) "some messages" true (Bgp_net.message_count net > 0);
  Alcotest.(check bool) "last change recorded" true (Bgp_net.last_change net >= 0.)

let test_deterministic_runs () =
  let t = diamond_plus () in
  let run () =
    let sim = Sim.create ~seed:21 () in
    let net = Bgp_net.create sim t ~dest:(vtx t 4) () in
    Bgp_net.start net;
    Sim.run sim;
    (Bgp_net.message_count net, Bgp_net.last_change net, Sim.events_processed sim)
  in
  Alcotest.(check bool) "identical" true (run () = run ())

let prop_failure_reconvergence_delivers =
  Test_support.qtest ~count:10
    "after any single provider-link failure, all ASes that still have a \
     route deliver packets"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 8 |] in
      let mh = Topology.multi_homed t in
      QCheck2.assume (Array.length mh > 0);
      let dest = mh.(Random.State.int st (Array.length mh)) in
      let sim, net = Test_support.converge_bgp t ~dest in
      let provs = Topology.providers t dest in
      let p0 = provs.(Random.State.int st (Array.length provs)) in
      Bgp_net.fail_link net dest p0;
      Sim.run sim;
      let statuses = Bgp_net.walk_all net in
      Array.for_all
        (fun v ->
          match Bgp_net.best net v with
          | None -> true
          | Some _ -> Fwd_walk.equal_status statuses.(v) Fwd_walk.Delivered)
        (Topology.vertices t))

let () =
  Alcotest.run "bgp"
    [
      ( "decision",
        [
          Alcotest.test_case "prefer customer" `Quick test_decision_prefers_customer;
          Alcotest.test_case "shorter path" `Quick test_decision_shorter_path;
          Alcotest.test_case "lowest next hop" `Quick test_decision_lowest_next_hop;
          Alcotest.test_case "origin wins" `Quick test_decision_origin_wins;
          Alcotest.test_case "select" `Quick test_decision_select;
          Alcotest.test_case "select empty" `Quick test_decision_select_empty;
        ] );
      ("export", [ Alcotest.test_case "matrix" `Quick test_export_matrix ]);
      ( "mrai",
        [
          Alcotest.test_case "interval range" `Quick test_mrai_interval_range;
          Alcotest.test_case "gating" `Quick test_mrai_gating;
          Alcotest.test_case "zero base" `Quick test_mrai_zero_base;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "diamond all destinations" `Quick
            test_converges_to_oracle_diamond;
          prop_sim_matches_oracle;
          Alcotest.test_case "all delivered" `Quick
            test_all_delivered_after_convergence;
        ] );
      ( "failures",
        [
          Alcotest.test_case "link failure reroutes" `Quick
            test_link_failure_reroutes;
          Alcotest.test_case "failure matches pruned oracle" `Quick
            test_link_failure_matches_oracle_of_pruned_topology;
          Alcotest.test_case "node failure withdraws" `Quick
            test_node_failure_withdraws;
          Alcotest.test_case "link recovery" `Quick test_link_recovery_restores;
          Alcotest.test_case "transient problems visible" `Quick
            test_transient_problems_during_convergence;
          Alcotest.test_case "message counting" `Quick test_message_counting;
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          prop_failure_reconvergence_delivers;
        ] );
    ]
