(* Tests for the partial-deployment engine: the control plane must be
   byte-for-byte plain BGP, the blue table must hold the most disjoint
   alternate, and deflection must save packets when an upgraded AS loses
   its route. *)

let diamond = Test_support.diamond
let vtx = Test_support.vtx

let converge ?(seed = 7) ?detect_delay ~deployed topo ~dest =
  let sim = Sim.create ~seed () in
  let net = Bgp_net.create sim topo ~dest ~deployed ?detect_delay () in
  Bgp_net.start net;
  Sim.run sim;
  (sim, net)

(* --- control plane == plain BGP ---------------------------------------- *)

let prop_control_plane_is_bgp =
  Test_support.qtest ~count:10
    "hybrid control plane equals plain BGP regardless of deployment"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 61 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let tiers = Tiers.classify t in
      let _, net = converge ~seed:p.Topo_gen.seed t ~dest
                     ~deployed:(fun v -> tiers.(v) <= 1) in
      let oracle = Static_route.compute t ~dest in
      Array.for_all
        (fun v ->
          match (oracle.(v), Bgp_net.best net v) with
          | None, None -> true
          | Some e, Some b -> e.Static_route.as_path = b.Route.as_path
          | (Some _ | None), _ -> false)
        (Topology.vertices t))

let test_message_count_equals_bgp () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:120 ()) in
  let dest = (Topology.multi_homed t).(0) in
  let _, hybrid = converge ~seed:3 t ~dest ~deployed:(fun _ -> true) in
  let _, bgp = Test_support.converge_bgp ~seed:3 t ~dest in
  Alcotest.(check int) "same update count" (Bgp_net.message_count bgp)
    (Bgp_net.message_count hybrid)

(* --- blue table ----------------------------------------------------------- *)

let test_backup_disjoint_on_diamond () =
  let t = diamond () in
  let dest = vtx t 3 in
  let _, net = converge t ~dest ~deployed:(Topology.is_tier1 t) in
  (* tier-1 10: best 10>1>3, backup must be via peer 20 avoiding 1 *)
  (match Bgp_net.backup net (vtx t 10) with
  | Some r ->
    Alcotest.(check (list int)) "backup path" [ 20; 2; 3 ]
      (Test_support.asns_of_path t r.Route.as_path)
  | None -> Alcotest.fail "no backup at AS 10");
  Alcotest.(check bool) "disjoint backup" true
    (Bgp_net.has_disjoint_backup net (vtx t 10));
  (* legacy ASes expose no backup *)
  Alcotest.(check bool) "legacy has none" true
    (Bgp_net.backup net (vtx t 1) = None)

let test_backup_absent_without_alternates () =
  let t = Test_support.chain 4 in
  let dest = vtx t 4 in
  let _, net = converge t ~dest ~deployed:(fun _ -> true) in
  (* a chain has a single route everywhere: no backups *)
  Array.iter
    (fun v ->
      if v <> dest then
        Alcotest.(check bool)
          (Printf.sprintf "AS %d no backup" (Topology.asn t v))
          true
          (Bgp_net.backup net v = None))
    (Topology.vertices t)

(* --- deflection -------------------------------------------------------------- *)

let test_deflection_saves_at_failure_instant () =
  (* deflection engages when the AS holding the backup loses its own best:
     fail the link 10-1, whose upstream end (tier-1 10) holds the disjoint
     backup 10>20>2>3. Under plain BGP AS 10 is blackholed at that instant;
     upgraded, it re-colours packets onto the backup and survives. Note the
     converse case — the failure breaking a *remote* hop of a healthy-looking
     best — is exactly what partial deployment cannot detect without the ET
     attribute (see Experiment.partial_deployment_dynamic). *)
  let t = diamond () in
  let dest = vtx t 3 in
  let sim, net = converge t ~dest ~deployed:(Topology.is_tier1 t) in
  ignore sim;
  Bgp_net.fail_link net (vtx t 10) (vtx t 1);
  let statuses = Bgp_net.walk_all net in
  Alcotest.(check bool) "AS 10 delivered" true
    (Fwd_walk.equal_status statuses.(vtx t 10) Fwd_walk.Delivered);
  (* the data-plane nature of the backup shows under slow control-plane
     detection: BGP cannot reroute before the session drops and blackholes
     AS 10, while the upgraded AS deflects on the interface-down signal *)
  let sim', bgp = Test_support.converge_bgp ~detect_delay:5. t ~dest in
  ignore sim';
  Bgp_net.fail_link bgp (vtx t 10) (vtx t 1);
  Alcotest.(check bool) "BGP AS 10 broken under slow detection" false
    (Fwd_walk.equal_status (Bgp_net.walk_all bgp).(vtx t 10) Fwd_walk.Delivered);
  let sim'', net' =
    converge ~detect_delay:5. t ~dest ~deployed:(Topology.is_tier1 t)
  in
  ignore sim'';
  Bgp_net.fail_link net' (vtx t 10) (vtx t 1);
  Alcotest.(check bool) "hybrid AS 10 survives slow detection" true
    (Fwd_walk.equal_status
       (Bgp_net.walk_all net').(vtx t 10)
       Fwd_walk.Delivered)

let prop_partial_never_worse_than_bgp =
  Test_support.qtest ~count:8
    "partial deployment never increases transient problems"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      QCheck2.assume (Array.length (Topology.multi_homed t) > 0);
      let st = Random.State.make [| p.Topo_gen.seed + 62 |] in
      let spec = Scenario.single_link st t in
      let tiers = Tiers.classify t in
      let bgp = Runner.run ~seed:p.Topo_gen.seed Runner.Bgp t spec in
      let hybrid =
        Runner.run_engine ~seed:p.Topo_gen.seed
          (Bgp_engine.hybrid ~deployed:(fun v -> tiers.(v) <= 1) ())
          t spec
      in
      hybrid.Runner.transient_count <= bgp.Runner.transient_count)

let test_full_deployment_converges_and_delivers () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:150 ()) in
  let st = Random.State.make [| 4 |] in
  let spec = Scenario.single_link st t in
  let r = Runner.run_engine Bgp_engine.hybrid_full t spec in
  Alcotest.(check int) "no permanent loss" 0 r.Runner.broken_after

let () =
  Alcotest.run "hybrid"
    [
      ( "control-plane",
        [
          prop_control_plane_is_bgp;
          Alcotest.test_case "message count" `Quick test_message_count_equals_bgp;
        ] );
      ( "blue-table",
        [
          Alcotest.test_case "diamond backup" `Quick
            test_backup_disjoint_on_diamond;
          Alcotest.test_case "no alternates" `Quick
            test_backup_absent_without_alternates;
        ] );
      ( "deflection",
        [
          Alcotest.test_case "saves at failure instant" `Quick
            test_deflection_saves_at_failure_instant;
          prop_partial_never_worse_than_bgp;
          Alcotest.test_case "full deployment" `Quick
            test_full_deployment_converges_and_delivers;
        ] );
    ]
