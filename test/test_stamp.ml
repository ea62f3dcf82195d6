(* Tests for the STAMP core: colours, coloring, the two-process engine
   (lock propagation, selective announcements, downhill disjointness — the
   paper's Theorem 4.1), ET-driven forwarding (Theorem 5.1), and the Φ
   analysis of Section 6.1. *)

let diamond = Test_support.diamond
let diamond_plus = Test_support.diamond_plus
let vtx = Test_support.vtx

let converge ?(seed = 7) ?coloring topo ~dest =
  let coloring =
    match coloring with
    | Some c -> c
    | None -> Coloring.create Coloring.Random_choice ~seed topo ~dest
  in
  let sim = Sim.create ~seed () in
  let net = Stamp_net.create sim topo ~dest ~coloring () in
  Stamp_net.start net;
  Sim.run sim;
  (sim, net)

(* --- Color ------------------------------------------------------------- *)

let test_color_basics () =
  Alcotest.(check bool) "other red" true (Color.equal (Color.other Color.Red) Color.Blue);
  Alcotest.(check bool) "other blue" true (Color.equal (Color.other Color.Blue) Color.Red);
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Color.equal c (Color.of_int (Color.to_int c))))
    Color.all;
  Alcotest.check_raises "of_int" (Invalid_argument "Color.of_int: 2") (fun () ->
      ignore (Color.of_int 2))

(* --- Coloring ----------------------------------------------------------- *)

let test_effective_origin () =
  let t = diamond_plus () in
  Alcotest.(check (option int)) "multi-homed is its own origin"
    (Some (vtx t 3))
    (Coloring.effective_origin t (vtx t 3));
  Alcotest.(check (option int)) "single-homed climbs"
    (Some (vtx t 3))
    (Coloring.effective_origin t (vtx t 4));
  Alcotest.(check (option int)) "tier-1 has none" None
    (Coloring.effective_origin t (vtx t 10));
  let chain = Test_support.chain 4 in
  Alcotest.(check (option int)) "chain reaches tier-1" None
    (Coloring.effective_origin chain (vtx chain 4))

let test_coloring_deterministic () =
  let t = diamond_plus () in
  let prefs seed =
    let c = Coloring.create Coloring.Random_choice ~seed t ~dest:(vtx t 4) in
    Array.to_list (Coloring.preference c (vtx t 3))
  in
  Alcotest.(check (list int)) "same seed" (prefs 5) (prefs 5);
  Alcotest.(check int) "both providers listed" 2 (List.length (prefs 5))

(* The Φ = 0.75 topology: m has providers a (reaching tier-1 T1 only) and
   b (reaching both T1 and T2). Locking through a is always good; locking
   through b is good only when b's walk picks T2. *)
let phi_075_topology () =
  let b = Topology.Builder.create () in
  Topology.Builder.add_p2p b 1 2;
  (* T1 = 1, T2 = 2 *)
  Topology.Builder.add_p2c b ~provider:1 ~customer:11;
  (* a = 11 *)
  Topology.Builder.add_p2c b ~provider:1 ~customer:12;
  (* b = 12 *)
  Topology.Builder.add_p2c b ~provider:2 ~customer:12;
  Topology.Builder.add_p2c b ~provider:11 ~customer:30;
  Topology.Builder.add_p2c b ~provider:12 ~customer:30;
  (* m = 30 *)
  Topology.Builder.build b

let test_coloring_intelligent_ranks_good_provider_first () =
  let t = phi_075_topology () in
  let m = vtx t 30 in
  let c =
    Coloring.create (Coloring.Intelligent { samples = 200 }) ~seed:3 t ~dest:m
  in
  match Array.to_list (Coloring.preference c m) with
  | first :: _ ->
    Alcotest.(check int) "provider 11 ranked first" (vtx t 11) first
  | [] -> Alcotest.fail "no preference"

(* --- Lock guarantee and convergence ------------------------------------ *)

let test_everyone_gets_blue_diamond () =
  let t = diamond_plus () in
  let _, net = converge t ~dest:(vtx t 4) in
  Array.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "AS %d has blue" (Topology.asn t v))
        true
        (Stamp_net.best net Color.Blue v <> None))
    (Topology.vertices t)

let prop_everyone_gets_blue =
  Test_support.qtest ~count:12 "lock guarantee: every AS obtains a blue route"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 21 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let _, net = converge ~seed:p.Topo_gen.seed t ~dest in
      Array.for_all
        (fun v -> Stamp_net.best net Color.Blue v <> None)
        (Topology.vertices t))

let prop_blue_paths_valley_free =
  Test_support.qtest ~count:10 "both processes produce valley-free loop-free paths"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 22 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let _, net = converge ~seed:p.Topo_gen.seed t ~dest in
      Array.for_all
        (fun v ->
          List.for_all
            (fun c ->
              match Stamp_net.path net c v with
              | None -> true
              | Some path ->
                Valley.is_valley_free t path
                && List.length path = List.length (List.sort_uniq compare path))
            Color.all)
        (Topology.vertices t))

(* --- Theorem 4.1: the selective-announcement machinery ------------------ *)

(* The theorem rests on two structural invariants of Section 4.1, both
   checked here on converged states:

   1. red and blue are never announced to the same provider (except on
      single-homed origin chains, where one relaying provider is allowed);
   2. at most one provider receives the blue route with [Lock] set, and
      lock bits only ever go to providers;

   plus the property the initial colouring is explicitly designed for:
   red and blue paths reach the destination "associated with different
   last hop providers". *)
let announcement_invariants t net =
  Array.for_all
    (fun u ->
      let to_providers color =
        List.filter
          (fun (n, _) ->
            Topology.rel t u n = Some Relationship.Provider)
          (Stamp_net.announced net color u)
      in
      let red = to_providers Color.Red and blue = to_providers Color.Blue in
      let both =
        List.filter (fun (n, _) -> List.mem_assoc n blue) red
      in
      let locked = List.filter snd blue in
      let relay_allowance =
        if Array.length (Topology.providers t u) = 1 then 1 else 0
      in
      List.length both <= relay_allowance
      && List.length locked <= 1
      && List.for_all
           (fun (n, lock) ->
             (not lock) || Topology.rel t u n = Some Relationship.Provider)
           (Stamp_net.announced net Color.Blue u))
    (Topology.vertices t)

let different_last_hop_providers t net dest =
  Array.for_all
    (fun v ->
      match (Stamp_net.path net Color.Red v, Stamp_net.path net Color.Blue v) with
      | Some red, Some blue -> begin
        let last_hop path =
          let rec penultimate = function
            | [ x; _ ] -> Some x
            | _ :: rest -> penultimate rest
            | [] -> None
          in
          penultimate path
        in
        match (last_hop red, last_hop blue) with
        | Some r, Some b
          when Topology.rel t dest r = Some Relationship.Provider
               && Topology.rel t dest b = Some Relationship.Provider ->
          r <> b
        | _ -> true (* a path enters via a peer/customer: unconstrained *)
      end
      | _ -> true)
    (Topology.vertices t)

let test_disjoint_diamond () =
  let t = diamond () in
  let dest = vtx t 3 in
  let _, net = converge t ~dest in
  Alcotest.(check bool) "announcement invariants" true
    (announcement_invariants t net);
  Alcotest.(check bool) "different last-hop providers" true
    (different_last_hop_providers t net dest);
  (* on the diamond the full downhill disjointness holds for the tier-1s *)
  List.iter
    (fun asn ->
      let v = vtx t asn in
      match
        (Stamp_net.path net Color.Red v, Stamp_net.path net Color.Blue v)
      with
      | Some red, Some blue ->
        Alcotest.(check bool)
          (Printf.sprintf "AS %d downhill disjoint" asn)
          true
          (Valley.downhill_disjoint t red blue)
      | _ -> Alcotest.failf "AS %d lacks a colour" asn)
    [ 10; 20 ]

let prop_theorem_4_1 =
  Test_support.qtest ~count:12
    "Theorem 4.1 machinery: selective announcements and distinct last-hop \
     providers"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let mh = Topology.multi_homed t in
      QCheck2.assume (Array.length mh > 0);
      let st = Random.State.make [| p.Topo_gen.seed + 23 |] in
      let dest = mh.(Random.State.int st (Array.length mh)) in
      let _, net = converge ~seed:p.Topo_gen.seed t ~dest in
      announcement_invariants t net && different_last_hop_providers t net dest)

(* --- Theorem 5.1: forwarding under a single event ----------------------- *)

let test_instant_delivery_after_failure_diamond () =
  (* fail either of the destination's provider links: every AS still
     delivers at the very instant of the failure, before any update
     propagates — packets are re-coloured at the AS adjacent to the
     failure (BGP blackholes in the same scenario) *)
  let t = diamond () in
  let dest = vtx t 3 in
  List.iter
    (fun provider_asn ->
      let sim, net = converge t ~dest in
      Stamp_net.fail_link net dest (vtx t provider_asn);
      Array.iteri
        (fun v s ->
          Alcotest.(check bool)
            (Printf.sprintf "fail 3-%d: AS %d delivered" provider_asn
               (Topology.asn t v))
            true
            (Fwd_walk.equal_status s Fwd_walk.Delivered))
        (Stamp_net.walk_all net);
      Sim.run sim;
      Array.iter
        (fun s ->
          Alcotest.(check bool) "delivered after reconvergence" true
            (Fwd_walk.equal_status s Fwd_walk.Delivered))
        (Stamp_net.walk_all net))
    [ 1; 2 ]

let test_instability_flag_set_and_cleared () =
  let t = diamond () in
  let dest = vtx t 3 in
  let sim, net = converge t ~dest in
  (* find the colour each provider carries and fail one of the links *)
  let p1 = vtx t 1 in
  let colour_via_p1 =
    List.find_opt
      (fun c ->
        match Stamp_net.best net c p1 with
        | Some r -> Route.learned_from r = Some dest
        | None -> false)
      Color.all
  in
  match colour_via_p1 with
  | None -> Alcotest.fail "AS 1 should have a direct route on some colour"
  | Some c ->
    Stamp_net.fail_link net dest p1;
    Alcotest.(check bool) "unstable right after failure" true
      (Stamp_net.unstable net c p1);
    Sim.run sim;
    (* after reconvergence AS 1 has a fresh route on that process again;
       the flag clears when an ET=1 announce installs it *)
    Alcotest.(check bool) "route restored" true
      (Stamp_net.best net c p1 <> None)

(* --- When a router may skip its advertisement round ------------------- *)

(* A router re-runs its full advertisement round after a receipt only when
   a decision changed or its selective-announcement plan moved. Both tests
   build a receipt that moves the plan alone. Providers are drawn above
   their customers:

       6 ---- 7        r's providers, peers of each other
        \    /
         r 4 ===== 3   r's sibling
          |        |
          5        |   3 peers with 2
          |        |
          2 -------+
          |
          1            the destination

   r's blue best comes from its sibling 3 ([3; 2; 1], customer-grade
   preference, lowest next hop). The locked blue chain 1 -> 2 -> 5 reaches
   r as [5; 2; 1]: the same preference and length, a higher next hop, so
   it is held but never best. *)
let skip_rule_topology () =
  let b = Topology.Builder.create () in
  Topology.Builder.add_p2c b ~provider:2 ~customer:1;
  Topology.Builder.add_p2p b 2 3;
  Topology.Builder.add_sibling b 3 4;
  Topology.Builder.add_p2c b ~provider:5 ~customer:2;
  Topology.Builder.add_p2c b ~provider:4 ~customer:5;
  Topology.Builder.add_p2c b ~provider:6 ~customer:4;
  Topology.Builder.add_p2c b ~provider:7 ~customer:4;
  Topology.Builder.add_p2p b 6 7;
  Topology.Builder.build b

let skip_rule_net ?detect_delay t =
  let dest = vtx t 1 in
  let coloring = Coloring.create Coloring.Random_choice ~seed:7 t ~dest in
  let sim = Sim.create ~seed:7 () in
  (sim, coloring, Stamp_net.create sim t ~dest ~coloring ?detect_delay ())

let blue_from_sibling t net =
  Alcotest.(check (option int)) "r's blue best comes from its sibling"
    (Some (vtx t 3))
    (Option.bind (Stamp_net.best net Color.Blue (vtx t 4)) Route.learned_from)

let locked_to t net =
  List.filter_map
    (fun (n, lock) -> if lock then Some (Topology.asn t n) else None)
    (Stamp_net.announced net Color.Blue (vtx t 4))

(* (a) The locked entry arrives last and changes no decision, only
   whether r holds a lock: r must still announce Lock upward. *)
let test_skip_rule_lock_held () =
  let t = skip_rule_topology () in
  let sim, coloring, net = skip_rule_net t in
  let r = vtx t 4 in
  Stamp_net.deny_export net (vtx t 5) r;
  Stamp_net.start net;
  Sim.run sim;
  blue_from_sibling t net;
  Alcotest.(check (list int)) "no lock held, none announced" []
    (locked_to t net);
  Stamp_net.allow_export net (vtx t 5) r;
  Sim.run sim;
  blue_from_sibling t net;
  Alcotest.(check (list int)) "Lock goes to the designated provider"
    [ Topology.asn t (Coloring.preference coloring r).(0) ]
    (locked_to t net)

(* (b) The designated provider's link fails; before the detection delay
   runs out, r receives a withdrawal that changes no decision. The round
   must run under the new plan, which designates the other provider. *)
let test_skip_rule_detection_window () =
  let t = skip_rule_topology () in
  let sim, coloring, net = skip_rule_net ~detect_delay:1.0 t in
  let r = vtx t 4 in
  Stamp_net.start net;
  Sim.run sim;
  let prefs = Coloring.preference coloring r in
  let designated = prefs.(0) and other = prefs.(1) in
  blue_from_sibling t net;
  Alcotest.(check (list int)) "Lock to the first provider"
    [ Topology.asn t designated ] (locked_to t net);
  Stamp_net.fail_link net r designated;
  Stamp_net.deny_export net other r;
  Sim.run ~until:(Sim.now sim +. 0.5) sim;
  blue_from_sibling t net;
  Alcotest.(check (list int)) "Lock moves before the failure is detected"
    (List.sort compare [ Topology.asn t designated; Topology.asn t other ])
    (List.sort compare (locked_to t net))

(* Deterministic aggregate (individual instances are too noisy for a
   random property): on a fixed 200-AS topology and eight single-link
   scenarios, STAMP's total transient count stays below BGP's. *)
let test_single_event_transients_below_bgp () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:200 ()) in
  let st = Random.State.make [| 42 |] in
  let specs = List.init 8 (fun _ -> Scenario.single_link st t) in
  let total proto =
    List.fold_left
      (fun acc (i, spec) ->
        acc + (Runner.run ~seed:i proto t spec).Runner.transient_count)
      0
      (List.mapi (fun i s -> (i, s)) specs)
  in
  let bgp = total Runner.Bgp and stamp = total Runner.Stamp in
  Alcotest.(check bool)
    (Printf.sprintf "stamp=%d <= bgp=%d" stamp bgp)
    true (stamp <= bgp)

let test_message_overhead_below_twice_bgp () =
  (* Section 6.3: two processes generate less than twice the updates of one
     standard BGP process. An aggregate claim: individual destinations can
     exceed the ratio slightly, so average over several. *)
  let t = Topo_gen.generate (Topo_gen.default_params ~n:150 ()) in
  let mh = Topology.multi_homed t in
  let dests = List.init 5 (fun i -> mh.(i * (Array.length mh / 5))) in
  let totals =
    List.map
      (fun dest ->
        let _, bgp = Test_support.converge_bgp ~seed:9 t ~dest in
        let _, stamp = converge ~seed:9 t ~dest in
        (Bgp_net.message_count bgp, Stamp_net.message_count stamp))
      dests
  in
  let bgp_total = List.fold_left (fun a (b, _) -> a + b) 0 totals in
  let stamp_total = List.fold_left (fun a (_, s) -> a + s) 0 totals in
  Alcotest.(check bool)
    (Printf.sprintf "stamp=%d < 2*bgp=%d" stamp_total (2 * bgp_total))
    true
    (stamp_total < 2 * bgp_total)

let test_deterministic () =
  let t = diamond_plus () in
  let run () =
    let sim, net = converge ~seed:13 t ~dest:(vtx t 4) in
    Stamp_net.fail_link net (vtx t 3) (vtx t 1);
    Sim.run sim;
    (Stamp_net.message_count net, Stamp_net.last_change net)
  in
  Alcotest.(check bool) "identical" true (run () = run ())

(* --- Φ (Section 6.1) ---------------------------------------------------- *)

let test_phi_diamond_is_one () =
  let t = diamond_plus () in
  let st = Random.State.make [| 2 |] in
  Alcotest.(check (float 0.001)) "phi(4)" 1.
    (Phi.phi ~samples:50 st t ~dest:(vtx t 4));
  Alcotest.(check (float 0.001)) "phi_exact(4)" 1. (Phi.phi_exact t ~dest:(vtx t 4))

let test_phi_chain_convention () =
  let t = Test_support.chain 4 in
  let st = Random.State.make [| 2 |] in
  Alcotest.(check (float 0.)) "no colouring point => 1.0" 1.
    (Phi.phi st t ~dest:(vtx t 4))

let test_phi_exact_075 () =
  let t = phi_075_topology () in
  Alcotest.(check (float 1e-9)) "phi_exact" 0.75 (Phi.phi_exact t ~dest:(vtx t 30))

let test_phi_sampling_approximates_exact () =
  let t = phi_075_topology () in
  let st = Random.State.make [| 4 |] in
  let estimate = Phi.phi ~samples:2000 st t ~dest:(vtx t 30) in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 0.05 of 0.75" estimate)
    true
    (Float.abs (estimate -. 0.75) < 0.05)

let test_phi_intelligent_beats_random () =
  let t = phi_075_topology () in
  let st = Random.State.make [| 4 |] in
  let intelligent =
    Phi.phi ~samples:300 ~selection:Phi.Intelligent_selection st t
      ~dest:(vtx t 30)
  in
  Alcotest.(check (float 0.001)) "intelligent = 1" 1. intelligent

let prop_phi_sampling_matches_exact =
  Test_support.qtest ~count:12 "Monte-Carlo Φ tracks exhaustive Φ"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate { p with Topo_gen.n = min p.Topo_gen.n 30 } in
      let st = Random.State.make [| p.Topo_gen.seed + 25 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      match Phi.phi_exact t ~dest with
      | exact ->
        let est = Phi.phi ~samples:800 st t ~dest in
        Float.abs (est -. exact) < 0.12
      | exception Invalid_argument _ -> QCheck2.assume_fail ())

let test_partial_deployment_diamond () =
  (* destinations 10, 20 (tier-1) and 3 (disjoint tier-1 paths) are
     protected; 1 and 2 are not (their tier-1 paths share a node) *)
  let t = diamond () in
  Alcotest.(check (float 1e-9)) "fraction" 0.6 (Phi.partial_deployment_tier1 t)

let test_deployment_curve_monotone () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:150 ()) in
  let curve = Phi.deployment_curve t ~max_tier:3 in
  Alcotest.(check int) "four points" 4 (List.length curve);
  let fracs = List.map snd curve in
  Alcotest.(check bool) "monotone non-decreasing" true
    (fracs = List.sort compare fracs);
  Alcotest.(check (float 1e-9)) "tier-1 point matches"
    (Phi.partial_deployment_tier1 t)
    (List.assoc 0 curve)

let test_partial_deployment_full_set () =
  (* deploying everywhere protects everyone by definition *)
  let t = Test_support.diamond_plus () in
  Alcotest.(check (float 1e-9)) "full deployment" 1.
    (Phi.partial_deployment ~deployed:(fun _ -> true) t)

let test_partial_deployment_bounds () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:120 ()) in
  let f = Phi.partial_deployment_tier1 t in
  Alcotest.(check bool)
    (Printf.sprintf "0 <= %.3f <= 1" f)
    true
    (f >= 0. && f <= 1.)

let () =
  Alcotest.run "stamp"
    [
      ("color", [ Alcotest.test_case "basics" `Quick test_color_basics ]);
      ( "coloring",
        [
          Alcotest.test_case "effective origin" `Quick test_effective_origin;
          Alcotest.test_case "deterministic" `Quick test_coloring_deterministic;
          Alcotest.test_case "intelligent ranking" `Quick
            test_coloring_intelligent_ranks_good_provider_first;
        ] );
      ( "lock",
        [
          Alcotest.test_case "everyone gets blue (diamond)" `Quick
            test_everyone_gets_blue_diamond;
          prop_everyone_gets_blue;
          prop_blue_paths_valley_free;
        ] );
      ( "theorem-4.1",
        [
          Alcotest.test_case "diamond" `Quick test_disjoint_diamond;
          prop_theorem_4_1;
        ] );
      ( "theorem-5.1",
        [
          Alcotest.test_case "instant delivery after failure" `Quick
            test_instant_delivery_after_failure_diamond;
          Alcotest.test_case "instability flag" `Quick
            test_instability_flag_set_and_cleared;
          Alcotest.test_case "transients below BGP (aggregate)" `Quick
            test_single_event_transients_below_bgp;
          Alcotest.test_case "message overhead < 2x BGP" `Quick
            test_message_overhead_below_twice_bgp;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
        ] );
      ( "skip-rule",
        [
          Alcotest.test_case "lock held without a decision" `Quick
            test_skip_rule_lock_held;
          Alcotest.test_case "plan moved in the detection window" `Quick
            test_skip_rule_detection_window;
        ] );
      ( "phi",
        [
          Alcotest.test_case "diamond = 1" `Quick test_phi_diamond_is_one;
          Alcotest.test_case "chain convention" `Quick test_phi_chain_convention;
          Alcotest.test_case "exact 0.75" `Quick test_phi_exact_075;
          Alcotest.test_case "sampling approximates" `Quick
            test_phi_sampling_approximates_exact;
          Alcotest.test_case "intelligent beats random" `Quick
            test_phi_intelligent_beats_random;
          prop_phi_sampling_matches_exact;
          Alcotest.test_case "partial deployment diamond" `Quick
            test_partial_deployment_diamond;
          Alcotest.test_case "partial deployment bounds" `Quick
            test_partial_deployment_bounds;
          Alcotest.test_case "deployment curve" `Quick
            test_deployment_curve_monotone;
          Alcotest.test_case "full deployment" `Quick
            test_partial_deployment_full_set;
        ] );
    ]
