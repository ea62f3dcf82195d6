(* Edge cases and smaller components: generator validation, printers,
   MRAI flush bookkeeping, Sim stepping, and cross-cutting smoke tests. *)

let vtx = Test_support.vtx

(* --- Topo_gen parameter validation ----------------------------------- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_gen_validation () =
  let base = Topo_gen.default_params ~n:50 () in
  expect_invalid "n too small" (fun () ->
      Topo_gen.generate { base with Topo_gen.n = 2; n_tier1 = 5 });
  expect_invalid "tier1 zero" (fun () ->
      Topo_gen.generate { base with Topo_gen.n_tier1 = 0 });
  expect_invalid "mid fraction" (fun () ->
      Topo_gen.generate { base with Topo_gen.mid_fraction = 1.5 });
  expect_invalid "stub prob" (fun () ->
      Topo_gen.generate { base with Topo_gen.stub_extra_provider_prob = 1.0 });
  expect_invalid "max providers" (fun () ->
      Topo_gen.generate { base with Topo_gen.max_providers = 0 });
  expect_invalid "peers negative" (fun () ->
      Topo_gen.generate { base with Topo_gen.peers_per_mid = -1. })

let test_gen_tiny () =
  (* smallest legal configurations still satisfy the invariants *)
  List.iter
    (fun (n, t1) ->
      let t =
        Topo_gen.generate
          { (Topo_gen.default_params ~n ()) with Topo_gen.n_tier1 = t1 }
      in
      Alcotest.(check int) "size" n (Topology.num_vertices t);
      Alcotest.(check bool) "connected" true (Topology.is_connected t);
      Alcotest.(check bool) "acyclic" true (Topology.provider_dag_is_acyclic t))
    [ (3, 1); (4, 2); (10, 1); (12, 10) ]

(* --- printers ----------------------------------------------------------- *)

let render pp v = Format.asprintf "%a" pp v

let test_route_pp () =
  let r = Route.make ~cls:Relationship.Peer [ 1; 2; 3 ] in
  Alcotest.(check string) "route" "[1 2 3] via peer" (render Route.pp r)

let test_relationship_pp () =
  List.iter
    (fun (r, s) -> Alcotest.(check string) s s (render Relationship.pp r))
    [
      (Relationship.Customer, "customer");
      (Relationship.Provider, "provider");
      (Relationship.Peer, "peer");
      (Relationship.Sibling, "sibling");
    ]

let test_scenario_pp () =
  let t = Test_support.diamond () in
  let spec =
    {
      Scenario.dest = vtx t 3;
      events =
        [
          Scenario.Fail_link (vtx t 3, vtx t 1);
          Scenario.Fail_node (vtx t 2);
          Scenario.Deny_export (vtx t 3, vtx t 2);
        ];
      detect_delay = None;
    }
  in
  Alcotest.(check string) "spec" "dest=3 fail=[link 3-1; node 2; policy 3-x->2]"
    (render (Scenario.pp_spec t) spec)

let test_topology_pp_stats () =
  let s = render Topology.pp_stats (Test_support.diamond ()) in
  Alcotest.(check bool) "mentions ASes" true
    (Astring.String.is_infix ~affix:"ASes=5" s);
  Alcotest.(check bool) "mentions tier1" true
    (Astring.String.is_infix ~affix:"tier1=2" s)

let test_fwd_status_pp () =
  List.iter
    (fun (st, s) -> Alcotest.(check string) s s (render Fwd_walk.pp_status st))
    [
      (Fwd_walk.Delivered, "delivered");
      (Fwd_walk.Looped, "looped");
      (Fwd_walk.Blackholed, "blackholed");
    ]

let test_report_printers_smoke () =
  (* the report printers must render without raising on real results *)
  let t = Topo_gen.generate (Topo_gen.default_params ~n:60 ()) in
  let f1 = Experiment.fig1 ~samples:10 ~intelligent_samples:5 t in
  let s = render Report.pp_fig1 f1 in
  Alcotest.(check bool) "fig1 mentions paper" true
    (Astring.String.is_infix ~affix:"paper" s);
  let bars =
    Experiment.failure_bars ~instances:2 ~scenario:Scenario.single_link t
  in
  let s = render Report.pp_bars_plain bars in
  Alcotest.(check bool) "plain bars mention STAMP" true
    (Astring.String.is_infix ~affix:"STAMP" s);
  let rows = Experiment.overhead_and_delay ~instances:2 t in
  let s = render Report.pp_overhead rows in
  Alcotest.(check bool) "overhead mentions recover" true
    (Astring.String.is_infix ~affix:"recover" s)

(* --- MRAI flush bookkeeping ---------------------------------------------- *)

let test_mrai_flush_flag () =
  let t = Test_support.chain 2 in
  let sim, core, _ = Test_support.session_core ~seed:2 t in
  let src = Test_support.vtx t 1 and rib_out = [| None |] in
  let pending () = Session_core.flush_pending core ~proc:0 ~src ~slot:0 in
  let advertise desired =
    Test_support.advertise core ~src ~slot:0 ~rib_out desired ~retry:ignore
  in
  Alcotest.(check bool) "initially unscheduled" false (pending ());
  advertise (Some 1);
  Alcotest.(check bool) "sent, nothing deferred" false (pending ());
  advertise (Some 2);
  Alcotest.(check bool) "scheduled" true (pending ());
  Sim.run sim;
  Alcotest.(check bool) "cleared" false (pending ())

let test_mrai_negative_base () =
  Alcotest.check_raises "negative base"
    (Invalid_argument "Test.create: negative MRAI base") (fun () ->
      ignore (Test_support.session_core ~mrai_base:(-1.) (Test_support.chain 2)))

(* --- Sim stepping ----------------------------------------------------------- *)

let test_sim_step () =
  let sim = Sim.create () in
  Alcotest.(check bool) "empty step" false (Sim.step sim);
  Sim.schedule sim ~delay:1. (fun _ -> ());
  Sim.schedule sim ~delay:2. (fun _ -> ());
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check (float 1e-9)) "clock" 1. (Sim.now sim);
  Alcotest.(check int) "pending" 1 (Sim.pending sim)

let test_sim_run_advances_clock_without_events () =
  let sim = Sim.create () in
  Sim.run ~until:5. sim;
  Alcotest.(check (float 1e-9)) "clock advanced" 5. (Sim.now sim);
  (* but an unbounded run with an empty queue must not jump to infinity *)
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "still finite" 5. (Sim.now sim)

(* --- failure overlay ---------------------------------------------------- *)

let test_link_state () =
  let t = Test_support.diamond_plus () in
  let v = Test_support.vtx t in
  let ls = Link_state.create t in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.(check pairs) "nothing down" [] (Link_state.failed_links ls);
  (* failed in an order neither sorted nor lower-first, one twice *)
  Link_state.fail_link ls (v 3) (v 2);
  Link_state.fail_link ls (v 20) (v 10);
  Link_state.fail_link ls (v 1) (v 2);
  Link_state.fail_link ls (v 2) (v 3);
  let canon a b = (min a b, max a b) in
  Alcotest.(check pairs) "sorted, lower vertex first"
    (List.sort compare
       [ canon (v 2) (v 3); canon (v 10) (v 20); canon (v 1) (v 2) ])
    (Link_state.failed_links ls);
  let up a b = Link_state.link_up ls (v a) (v b) in
  Alcotest.(check bool) "down both ways" false (up 3 2);
  Alcotest.(check bool) "other link up" true (up 1 3);
  Link_state.recover_link ls (v 2) (v 3);
  Link_state.recover_link ls (v 3) (v 2);
  Link_state.recover_link ls (v 10) (v 20);
  Alcotest.(check pairs) "recovered twice, once counted"
    [ canon (v 1) (v 2) ]
    (Link_state.failed_links ls);
  Alcotest.(check bool) "still down" false (up 2 1);
  Link_state.recover_link ls (v 1) (v 2);
  Alcotest.(check bool) "up again" true (up 2 1);
  Link_state.fail_node ls (v 3);
  Alcotest.(check bool) "node down" false (up 1 3);
  Alcotest.(check pairs) "a node failure fails no link" []
    (Link_state.failed_links ls);
  Alcotest.check_raises "not adjacent"
    (Invalid_argument "Link_state: vertices not adjacent") (fun () ->
      Link_state.fail_link ls (v 10) (v 3))

(* --- instant-delivery property (Theorem 5.1 corollary) -------------------- *)

let test_instant_delivery_when_fully_covered () =
  (* whenever every AS holds both colours before a single provider-link
     failure of the destination, the forwarding plane survives the failure
     instant unharmed *)
  let checked = ref 0 in
  let seed = ref 0 in
  while !checked < 5 && !seed < 25 do
    incr seed;
    let t = Topo_gen.generate (Topo_gen.default_params ~seed:!seed ~n:120 ()) in
    let st = Random.State.make [| !seed |] in
    let spec = Scenario.single_link st t in
    let dest = spec.Scenario.dest in
    let sim = Sim.create ~seed:!seed () in
    let coloring = Coloring.create Coloring.Random_choice ~seed:!seed t ~dest in
    let net = Stamp_net.create sim t ~dest ~coloring () in
    Stamp_net.start net;
    Sim.run sim;
    let fully_covered =
      Array.for_all (fun v -> Stamp_net.has_both net v) (Topology.vertices t)
    in
    if fully_covered then begin
      incr checked;
      List.iter
        (function
          | Scenario.Fail_link (u, v) -> Stamp_net.fail_link net u v
          | _ -> assert false (* single_link only emits link failures *))
        spec.Scenario.events;
      Array.iter
        (fun s ->
          Alcotest.(check bool) "instant delivery" true
            (Fwd_walk.equal_status s Fwd_walk.Delivered))
        (Stamp_net.walk_all net)
    end
  done;
  Alcotest.(check bool) "found fully covered instances" true (!checked >= 5)

(* --- Runner option plumbing -------------------------------------------------- *)

let test_runner_detect_delay_increases_bgp_damage () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:150 ()) in
  let st = Random.State.make [| 2 |] in
  let spec = Scenario.single_link st t in
  let fast = Runner.run ~seed:1 Runner.Bgp t spec in
  let slow = Runner.run ~seed:1 ~detect_delay:5. Runner.Bgp t spec in
  Alcotest.(check bool)
    (Printf.sprintf "slow (%d) >= fast (%d)" slow.Runner.transient_count
       fast.Runner.transient_count)
    true
    (slow.Runner.transient_count >= fast.Runner.transient_count)

let test_runner_stamp_variants_complete () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:100 ()) in
  let st = Random.State.make [| 3 |] in
  let spec = Scenario.single_link st t in
  let run engine = Runner.run_engine ~seed:1 engine t spec in
  let baseline = run (Stamp_engine.make ()) in
  let spread = run (Stamp_engine.make ~spread_unlocked_blue:true ()) in
  let smart =
    run
      (Stamp_engine.make ~strategy:(Coloring.Intelligent { samples = 10 }) ())
  in
  List.iter
    (fun (r : Runner.result) ->
      Alcotest.(check int) "no permanent loss" 0 r.Runner.broken_after)
    [ baseline; spread; smart ]

let () =
  Alcotest.run "misc"
    [
      ( "topo_gen",
        [
          Alcotest.test_case "validation" `Quick test_gen_validation;
          Alcotest.test_case "tiny configs" `Quick test_gen_tiny;
        ] );
      ( "printers",
        [
          Alcotest.test_case "route" `Quick test_route_pp;
          Alcotest.test_case "relationship" `Quick test_relationship_pp;
          Alcotest.test_case "scenario" `Quick test_scenario_pp;
          Alcotest.test_case "topology stats" `Quick test_topology_pp_stats;
          Alcotest.test_case "walk status" `Quick test_fwd_status_pp;
          Alcotest.test_case "report smoke" `Quick test_report_printers_smoke;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "mrai flush flag" `Quick test_mrai_flush_flag;
          Alcotest.test_case "sim step" `Quick test_sim_step;
          Alcotest.test_case "clock advance" `Quick
            test_sim_run_advances_clock_without_events;
          Alcotest.test_case "mrai negative base" `Quick
            test_mrai_negative_base;
          Alcotest.test_case "link state" `Quick test_link_state;
        ] );
      ( "stamp-instant",
        [
          Alcotest.test_case "instant delivery when covered" `Quick
            test_instant_delivery_when_fully_covered;
        ] );
      ( "runner",
        [
          Alcotest.test_case "detect delay" `Quick
            test_runner_detect_delay_increases_bgp_damage;
          Alcotest.test_case "stamp variants" `Quick
            test_runner_stamp_variants_complete;
        ] );
    ]
