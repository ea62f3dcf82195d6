(* Tests for the R-BGP engine: convergence to the BGP fixed point, failover
   advertisement, withdrawn-route forwarding, RCI purging, and the paper's
   single-link-failure guarantee. *)

let diamond = Test_support.diamond
let diamond_plus = Test_support.diamond_plus
let vtx = Test_support.vtx

let converge ?(seed = 7) ~rci topo ~dest =
  let sim = Sim.create ~seed () in
  let net = Rbgp_net.create sim topo ~dest ~rci () in
  Rbgp_net.start net;
  Sim.run sim;
  (sim, net)

let table_paths_equal t (a : Static_route.table) (b : Static_route.table) =
  Array.for_all
    (fun v ->
      match (a.(v), b.(v)) with
      | None, None -> true
      | Some ea, Some eb ->
        ea.Static_route.as_path = eb.Static_route.as_path
      | (Some _ | None), _ -> false)
    (Topology.vertices t)

(* --- convergence ------------------------------------------------------ *)

let test_converges_like_bgp () =
  let t = diamond_plus () in
  Array.iter
    (fun dest ->
      List.iter
        (fun rci ->
          let _, net = converge ~rci t ~dest in
          let oracle = Static_route.compute t ~dest in
          Alcotest.(check bool)
            (Printf.sprintf "dest %d rci=%b" (Topology.asn t dest) rci)
            true
            (table_paths_equal t oracle (Rbgp_net.to_table net)))
        [ true; false ])
    (Topology.vertices t)

let prop_rbgp_matches_oracle =
  Test_support.qtest ~count:10 "R-BGP selects the same primary fixed point as BGP"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 11 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let _, net = converge ~rci:true t ~dest in
      let oracle = Static_route.compute t ~dest in
      table_paths_equal t oracle (Rbgp_net.to_table net))

(* --- failover paths --------------------------------------------------- *)

let test_failover_advertised () =
  (* diamond, dest 3: AS 10's best is via 1 and its alternate comes from
     peer 20, so 10 advertises a failover path to 1 — AS 1 must hold it *)
  let t = diamond () in
  let _, net = converge ~rci:true t ~dest:(vtx t 3) in
  match Rbgp_net.failover_choices net (vtx t 1) with
  | [ path ] ->
    Alcotest.(check (list int)) "failover path" [ 10; 20; 2; 3 ]
      (Test_support.asns_of_path t path)
  | other ->
    Alcotest.failf "expected one failover path at AS 1, got %d"
      (List.length other)

let test_failover_no_self_advertise () =
  (* the destination never advertises failover paths *)
  let t = diamond () in
  let dest = vtx t 3 in
  let _, net = converge ~rci:true t ~dest in
  Array.iter
    (fun v ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "failover paths end at dest" true
            (List.nth p (List.length p - 1) = dest))
        (Rbgp_net.failover_choices net v))
    (Topology.vertices t)

(* --- the single-link-failure guarantee -------------------------------- *)

let test_no_blackhole_instantly_after_failure () =
  (* immediately after the failure event — before any update propagates —
     every AS still delivers: the stub's provider deflects onto the
     failover path it received. Plain BGP blackholes here (see
     test_bgp's "transient problems visible"). *)
  let t = diamond () in
  let dest = vtx t 3 in
  let sim, net = converge ~rci:true t ~dest in
  Rbgp_net.fail_link net (vtx t 1) (vtx t 3);
  Array.iteri
    (fun v s ->
      Alcotest.(check bool)
        (Printf.sprintf "AS %d delivered" (Topology.asn t v))
        true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Rbgp_net.walk_all net);
  Sim.run sim;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "delivered after reconvergence" true
        (Fwd_walk.equal_status s Fwd_walk.Delivered))
    (Rbgp_net.walk_all net)

let prop_rci_single_link_failure_zero_transients =
  Test_support.qtest ~count:10
    "R-BGP with RCI: no transient problems on single provider-link failure"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 12 |] in
      QCheck2.assume (Array.length (Topology.multi_homed t) > 0);
      let spec = Scenario.single_link st t in
      let r = Runner.run ~seed:p.Topo_gen.seed Runner.Rbgp t spec in
      r.Runner.transient_count = 0)

let prop_rci_never_worse_than_no_rci =
  Test_support.qtest ~count:8
    "RCI does not increase transient problems (aggregate)"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 13 |] in
      QCheck2.assume (Array.length (Topology.multi_homed t) > 0);
      (* aggregate over a few instances: individual instances are noisy *)
      let total proto =
        let st = Random.State.copy st in
        List.init 3 (fun i ->
            let spec = Scenario.single_link st t in
            (Runner.run ~seed:i proto t spec).Runner.transient_count)
        |> List.fold_left ( + ) 0
      in
      total Runner.Rbgp <= total Runner.Rbgp_no_rci)

(* --- RCI purging ------------------------------------------------------- *)

let test_post_failure_routes_avoid_failed_link () =
  let t = diamond_plus () in
  let dest = vtx t 4 in
  List.iter
    (fun rci ->
      let sim, net = converge ~rci t ~dest in
      Rbgp_net.fail_link net (vtx t 2) (vtx t 3);
      Sim.run sim;
      let table = Rbgp_net.to_table net in
      Array.iter
        (fun v ->
          match table.(v) with
          | None -> ()
          | Some e ->
            let path = v :: e.Static_route.as_path in
            let rec ok = function
              | a :: (b :: _ as rest) ->
                (not (a = vtx t 2 && b = vtx t 3))
                && (not (a = vtx t 3 && b = vtx t 2))
                && ok rest
              | [ _ ] | [] -> true
            in
            Alcotest.(check bool)
              (Printf.sprintf "rci=%b AS %d avoids dead link" rci
                 (Topology.asn t v))
              true (ok path))
        (Topology.vertices t))
    [ true; false ]

let test_node_failure_reconverges () =
  let t = diamond_plus () in
  let dest = vtx t 4 in
  let sim, net = converge ~rci:true t ~dest in
  (* fail AS 1: everything must reroute through 2 *)
  Rbgp_net.fail_node net (vtx t 1);
  Sim.run sim;
  Array.iter
    (fun v ->
      if v <> vtx t 1 then
        match Rbgp_net.best net v with
        | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "AS %d avoids failed node" (Topology.asn t v))
            true
            (not (Route.contains r (vtx t 1)))
        | None ->
          Alcotest.failf "AS %d lost connectivity" (Topology.asn t v))
    (Topology.vertices t)

let test_deterministic () =
  let t = diamond_plus () in
  let run () =
    let sim, net = converge ~seed:33 ~rci:true t ~dest:(vtx t 4) in
    Rbgp_net.fail_link net (vtx t 2) (vtx t 3);
    Sim.run sim;
    (Rbgp_net.message_count net, Rbgp_net.last_change net)
  in
  Alcotest.(check bool) "identical" true (run () = run ())

let test_message_overhead_above_bgp () =
  (* failover advertisements cost messages: R-BGP sends at least as many
     updates as BGP for the same convergence *)
  let t = diamond_plus () in
  let dest = vtx t 4 in
  let _, bgp = Test_support.converge_bgp ~seed:5 t ~dest in
  let _, rbgp = converge ~seed:5 ~rci:true t ~dest in
  Alcotest.(check bool) "rbgp >= bgp messages" true
    (Rbgp_net.message_count rbgp >= Bgp_net.message_count bgp)

(* Export policy covers failover paths too. diamond, dest 3: AS 10's
   failover path goes to its next hop 1 (see above). *)
let failover_from t net ~at ~from =
  List.exists
    (fun path -> List.hd path = vtx t from)
    (Rbgp_net.failover_choices net (vtx t at))

let test_failover_withdrawn_on_deny () =
  let t = diamond () in
  let sim, net = converge ~rci:true t ~dest:(vtx t 3) in
  Alcotest.(check bool) "AS 1 holds AS 10's failover path" true
    (failover_from t net ~at:1 ~from:10);
  Rbgp_net.deny_export net (vtx t 10) (vtx t 1);
  Sim.run sim;
  Alcotest.(check bool) "withdrawn once 10 denies export to 1" false
    (failover_from t net ~at:1 ~from:10)

let test_failover_sent_on_allow () =
  let t = diamond () in
  let sim = Sim.create ~seed:7 () in
  let net = Rbgp_net.create sim t ~dest:(vtx t 3) ~rci:true () in
  (* every failover choice is made while 10 -> 1 is denied *)
  Rbgp_net.deny_export net (vtx t 10) (vtx t 1);
  Rbgp_net.start net;
  Sim.run sim;
  Alcotest.(check bool) "nothing reaches AS 1 while denied" false
    (failover_from t net ~at:1 ~from:10);
  Rbgp_net.allow_export net (vtx t 10) (vtx t 1);
  Sim.run sim;
  Alcotest.(check bool) "sent once 10 allows export to 1" true
    (failover_from t net ~at:1 ~from:10)

let () =
  Alcotest.run "rbgp"
    [
      ( "convergence",
        [
          Alcotest.test_case "matches BGP fixed point" `Quick
            test_converges_like_bgp;
          prop_rbgp_matches_oracle;
        ] );
      ( "failover",
        [
          Alcotest.test_case "failover advertised" `Quick test_failover_advertised;
          Alcotest.test_case "failover paths end at dest" `Quick
            test_failover_no_self_advertise;
          Alcotest.test_case "deny export withdraws the failover path" `Quick
            test_failover_withdrawn_on_deny;
          Alcotest.test_case "allow export sends the failover path" `Quick
            test_failover_sent_on_allow;
        ] );
      ( "guarantee",
        [
          Alcotest.test_case "no blackhole at failure instant" `Quick
            test_no_blackhole_instantly_after_failure;
          prop_rci_single_link_failure_zero_transients;
          prop_rci_never_worse_than_no_rci;
        ] );
      ( "rci",
        [
          Alcotest.test_case "routes avoid failed link" `Quick
            test_post_failure_routes_avoid_failed_link;
          Alcotest.test_case "node failure" `Quick test_node_failure_reconverges;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "message overhead" `Quick
            test_message_overhead_above_bgp;
        ] );
    ]
