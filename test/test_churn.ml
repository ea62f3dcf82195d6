(* Tests for the churn & fault-injection layer: link/node recovery
   returning every engine to its pre-failure routing, the flap/churn
   scenario generators, the divergence watchdogs threaded through Runner,
   and the crash-tolerant churn sweeps. *)

let vtx = Test_support.vtx

let table_equal t (a : Static_route.table) (b : Static_route.table) =
  let ok = ref true in
  for v = 0 to Topology.num_vertices t - 1 do
    (match (a.(v), b.(v)) with
    | None, None -> ()
    | Some ea, Some eb
      when ea.Static_route.as_path = eb.Static_route.as_path
           && Relationship.equal ea.Static_route.cls eb.Static_route.cls ->
      ()
    | _ -> ok := false)
  done;
  !ok

(* --- fail -> recover returns each engine to the oracle ----------------- *)

(* Converge, snapshot the table, inject [fail], reconverge, inject
   [recover], reconverge, and check the table is back to the snapshot.
   [check_oracle] additionally pins the snapshot to the Static_route
   oracle (true for BGP and R-BGP; STAMP's per-colour trees follow the
   colouring, not plain BGP preference). *)
let roundtrip ~name ~create ~start ~table ~fail ~recover ~check_oracle t dest =
  let sim = Sim.create ~seed:11 () in
  let net = create sim in
  start net;
  Sim.run sim;
  let before = table net in
  if check_oracle then
    Alcotest.(check bool)
      (name ^ ": converged to oracle")
      true
      (table_equal t (Static_route.compute t ~dest) before);
  fail net;
  Sim.run sim;
  recover net;
  Sim.run sim;
  Alcotest.(check bool)
    (name ^ ": recovered to pre-failure table")
    true
    (table_equal t before (table net))

let fixtures () =
  [
    (* (label, topo, dest asn, link (u, v) to flap, node to bounce) *)
    ("diamond", Test_support.diamond (), 3, (3, 1), 1);
    ("diamond_plus", Test_support.diamond_plus (), 3, (3, 2), 2);
    ("chain", Test_support.chain 6, 4, (4, 3), 5);
  ]

let test_link_recover_oracle () =
  List.iter
    (fun (label, t, dasn, (ua, va), _) ->
      let dest = vtx t dasn and u = vtx t ua and v = vtx t va in
      roundtrip ~name:(label ^ "/bgp")
        ~create:(fun sim -> Bgp_net.create sim t ~dest ())
        ~start:Bgp_net.start ~table:Bgp_net.to_table
        ~fail:(fun net -> Bgp_net.fail_link net u v)
        ~recover:(fun net -> Bgp_net.recover_link net u v)
        ~check_oracle:true t dest;
      List.iter
        (fun rci ->
          roundtrip
            ~name:(Printf.sprintf "%s/rbgp rci=%b" label rci)
            ~create:(fun sim -> Rbgp_net.create sim t ~dest ~rci ())
            ~start:Rbgp_net.start ~table:Rbgp_net.to_table
            ~fail:(fun net -> Rbgp_net.fail_link net u v)
            ~recover:(fun net -> Rbgp_net.recover_link net u v)
            ~check_oracle:true t dest)
        [ true; false ];
      let coloring = Coloring.create Coloring.Random_choice ~seed:5 t ~dest in
      roundtrip ~name:(label ^ "/stamp")
        ~create:(fun sim -> Stamp_net.create sim t ~dest ~coloring ())
        ~start:Stamp_net.start
        ~table:(fun net ->
          (* both processes must return to their own pre-failure trees *)
          Array.append
            (Stamp_net.to_table net Color.Red)
            (Stamp_net.to_table net Color.Blue))
        ~fail:(fun net -> Stamp_net.fail_link net u v)
        ~recover:(fun net -> Stamp_net.recover_link net u v)
        ~check_oracle:false t dest)
    (fixtures ())

let test_node_recover_oracle () =
  List.iter
    (fun (label, t, dasn, _, nasn) ->
      let dest = vtx t dasn and node = vtx t nasn in
      roundtrip ~name:(label ^ "/bgp node")
        ~create:(fun sim -> Bgp_net.create sim t ~dest ())
        ~start:Bgp_net.start ~table:Bgp_net.to_table
        ~fail:(fun net -> Bgp_net.fail_node net node)
        ~recover:(fun net -> Bgp_net.recover_node net node)
        ~check_oracle:true t dest;
      roundtrip ~name:(label ^ "/rbgp node")
        ~create:(fun sim -> Rbgp_net.create sim t ~dest ~rci:true ())
        ~start:Rbgp_net.start ~table:Rbgp_net.to_table
        ~fail:(fun net -> Rbgp_net.fail_node net node)
        ~recover:(fun net -> Rbgp_net.recover_node net node)
        ~check_oracle:true t dest;
      let coloring = Coloring.create Coloring.Random_choice ~seed:5 t ~dest in
      roundtrip ~name:(label ^ "/stamp node")
        ~create:(fun sim -> Stamp_net.create sim t ~dest ~coloring ())
        ~start:Stamp_net.start
        ~table:(fun net ->
          Array.append
            (Stamp_net.to_table net Color.Red)
            (Stamp_net.to_table net Color.Blue))
        ~fail:(fun net -> Stamp_net.fail_node net node)
        ~recover:(fun net -> Stamp_net.recover_node net node)
        ~check_oracle:false t dest)
    (fixtures ())

(* The hybrid's backups are not in the table view; compare the
   forwarding-plane outcome for every source instead. *)
let test_hybrid_link_recover () =
  List.iter
    (fun (label, t, dasn, (ua, va), _) ->
      let dest = vtx t dasn and u = vtx t ua and v = vtx t va in
      let sim = Sim.create ~seed:11 () in
      let net = Bgp_net.create sim t ~dest ~deployed:(fun _ -> true) () in
      Bgp_net.start net;
      Sim.run sim;
      let before = Bgp_net.walk_all net in
      Array.iter
        (fun s ->
          Alcotest.(check bool)
            (label ^ ": delivered before failure")
            true
            (Fwd_walk.equal_status s Fwd_walk.Delivered))
        before;
      Bgp_net.fail_link net u v;
      Sim.run sim;
      Bgp_net.recover_link net u v;
      Sim.run sim;
      let after = Bgp_net.walk_all net in
      Alcotest.(check bool)
        (label ^ ": forwarding restored for every source")
        true
        (Array.for_all2 Fwd_walk.equal_status before after))
    (fixtures ())

(* --- scenario generators ----------------------------------------------- *)

let test_flap_structure () =
  let t = Test_support.diamond_plus () in
  let st = Random.State.make [| 42 |] in
  let spec = Scenario.flap ~period:60. ~count:3 st t in
  Alcotest.(check bool) "origin is multi-homed" true
    (Topology.is_multi_homed t spec.Scenario.dest);
  Alcotest.(check int) "2 events per flap" 6 (List.length spec.Scenario.events);
  let times =
    List.map
      (function
        | Scenario.At (dt, Scenario.Fail_link _)
        | Scenario.At (dt, Scenario.Recover_link _) ->
          dt
        | _ -> Alcotest.fail "flap emits only timed link events")
      spec.Scenario.events
  in
  Alcotest.(check (list (float 1e-9))) "fail/recover cadence"
    [ 0.; 30.; 60.; 90.; 120.; 150. ] times;
  Alcotest.check_raises "non-positive count"
    (Invalid_argument "Scenario.flap: non-positive count") (fun () ->
      ignore (Scenario.flap ~period:60. ~count:0 st t))

let test_churn_structure () =
  let t = Test_support.diamond_plus () in
  let gen seed = Scenario.churn ~rate:0.1 ~duration:300. (Random.State.make [| seed |]) t in
  let spec = gen 7 in
  Alcotest.(check bool) "same seed, same spec" true (gen 7 = spec);
  Alcotest.(check bool) "events non-empty for this seed" true
    (spec.Scenario.events <> []);
  let last = ref 0. in
  List.iter
    (function
      | Scenario.At (dt, (Scenario.Fail_link _ | Scenario.Recover_link _)) ->
        Alcotest.(check bool) "within duration" true (dt <= 300.);
        Alcotest.(check bool) "in time order" true (dt >= !last);
        last := dt
      | _ -> Alcotest.fail "churn emits only timed link events")
    spec.Scenario.events;
  Alcotest.check_raises "non-positive rate"
    (Invalid_argument "Scenario.churn: non-positive rate")
    (fun () -> ignore (Scenario.churn ~rate:0. ~duration:300. (Random.State.make [| 1 |]) t))

let test_with_resampling_error () =
  let t = Test_support.diamond () in
  let st = Random.State.make [| 1 |] in
  Alcotest.check_raises "informative give-up message"
    (Invalid_argument
       "Scenario.hopeless: no suitable instance found after 3 attempts \
        (topology: 5 ASes, 1 multi-homed)") (fun () ->
      ignore (Scenario.with_resampling ~attempts:3 "hopeless" (fun _ _ -> None) st t));
  Alcotest.check_raises "non-positive attempts"
    (Invalid_argument "Scenario.with_resampling: non-positive attempts")
    (fun () ->
      ignore
        (Scenario.with_resampling ~attempts:0 "hopeless" (fun _ _ -> None) st t))

(* --- hybrid event coverage ----------------------------------------------- *)

(* The hybrid engine used to pre-reject node and policy events; on the
   shared session core it supports the full vocabulary like every other
   engine. *)
let test_hybrid_full_vocabulary () =
  let t = Test_support.diamond () in
  let dest = vtx t 3 in
  let check_converges label events =
    let r =
      Runner.run_engine Bgp_engine.hybrid_full t
        { Scenario.dest; events; detect_delay = None }
    in
    Alcotest.(check string) (label ^ " runs to a verdict") "converged"
      (Sim.verdict_name r.Runner.verdict)
  in
  check_converges "node failure" [ Scenario.Fail_node (vtx t 1) ];
  check_converges "node failure then timed recovery"
    [
      Scenario.Fail_node (vtx t 1);
      Scenario.At (5., Scenario.Recover_node (vtx t 1));
    ];
  check_converges "policy deny then timed allow"
    [
      Scenario.Deny_export (dest, vtx t 1);
      Scenario.At (40., Scenario.Allow_export (dest, vtx t 1));
    ];
  check_converges "link failure then timed recovery"
    [
      Scenario.Fail_link (dest, vtx t 1);
      Scenario.At (40., Scenario.Recover_link (dest, vtx t 1));
    ];
  (* a denied export at a legacy-BGP AS pair actually withdraws the route:
     the hybrid's policy machinery works, it isn't silently ignored *)
  let r =
    Runner.run_engine (Bgp_engine.hybrid ~deployed:(fun _ -> false) ()) t
      {
        Scenario.dest;
        events = [ Scenario.Deny_export (dest, vtx t 1) ];
        detect_delay = None;
      }
  in
  Alcotest.(check string) "legacy-AS policy event converges" "converged"
    (Sim.verdict_name r.Runner.verdict);
  Alcotest.(check bool) "policy event causes reconvergence traffic" true
    (r.Runner.messages_event > 0)

(* --- watchdog verdicts through Runner and the sweeps -------------------- *)

(* Flap scenarios under a finite budget always terminate with a verdict,
   whatever the seed and flap shape. *)
let prop_flap_terminates =
  Test_support.qtest ~count:25 "guarded flap runs always reach a verdict"
    QCheck2.Gen.(
      triple (int_range 0 1000) (int_range 1 4) (float_range 0.5 90.))
    (fun (seed, count, period) ->
      Printf.sprintf "{seed=%d; count=%d; period=%g}" seed count period)
    (fun (seed, count, period) ->
      let t = Test_support.diamond_plus () in
      let spec =
        Scenario.flap ~period ~count (Random.State.make [| seed |]) t
      in
      let budget = { Runner.max_events = 30_000; max_vtime = 3_600. } in
      List.for_all
        (fun protocol ->
          let r = Runner.run ~seed ~budget protocol t spec in
          (* terminated (we got here) with a well-formed partial result *)
          r.Runner.checkpoints >= 1
          && r.Runner.transient_count >= 0
          && r.Runner.messages_initial >= 0
          && List.mem
               (Sim.verdict_name r.Runner.verdict)
               [ "converged"; "event-budget-exhausted"; "time-budget-exhausted" ])
        Runner.all_protocols)

(* A sweep under a deliberately tiny event budget: every instance is
   killed by the watchdog, none crashes, and the sweep still reports a row
   for every (protocol, instance) pair. *)
let test_sweep_tiny_budget_verdicts () =
  let t = Test_support.diamond_plus () in
  let instances = 3 in
  let rows, summaries =
    Experiment.churn_sweep ~instances ~seed:1
      ~budget:{ Runner.max_events = 40; max_vtime = 86_400. }
      ~scenario:(Scenario.flap ~period:60. ~count:3)
      t
  in
  Alcotest.(check int) "one row per (protocol, instance)"
    (List.length Runner.all_protocols * instances)
    (List.length rows);
  List.iter
    (fun (r : Experiment.churn_row) ->
      match r.outcome with
      | Ok res ->
        Alcotest.(check string)
          (Printf.sprintf "instance %d killed by the event budget" r.instance)
          "event-budget-exhausted"
          (Sim.verdict_name res.Runner.verdict)
      | Error msg -> Alcotest.failf "unexpected crash row: %s" msg)
    rows;
  List.iter
    (fun (s : Experiment.churn_summary) ->
      Alcotest.(check int) "completed" instances s.completed;
      Alcotest.(check int) "crashed" 0 s.crashed;
      Alcotest.(check int) "event-budget tally" instances
        s.event_budget_exhausted;
      Alcotest.(check int) "no converged" 0 s.converged)
    summaries

(* One poisoned instance (its spec injects a failure on a non-adjacent
   pair, so every engine raises) must not abort the sweep: it becomes an
   Error row per protocol while the other instances complete normally. *)
let test_sweep_survives_crashing_instance () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  let calls = ref 0 in
  let scenario st topo =
    incr calls;
    if !calls = 2 then
      (* 10 and 3 are not adjacent: fail_link raises in every engine *)
      { Scenario.dest; events = [ Scenario.Fail_link (vtx t 10, dest) ]; detect_delay = None }
    else Scenario.flap ~period:60. ~count:2 st topo
  in
  let rows, summaries =
    Experiment.churn_sweep ~instances:3 ~seed:1 ~scenario t
  in
  Alcotest.(check int) "all rows present"
    (List.length Runner.all_protocols * 3)
    (List.length rows);
  List.iter
    (fun (r : Experiment.churn_row) ->
      match (r.instance, r.outcome) with
      | 1, Error msg ->
        Alcotest.(check bool) "crash row carries the exception" true
          (Astring.String.is_infix ~affix:"fail_link" msg)
      | 1, Ok _ -> Alcotest.fail "poisoned instance should crash"
      | _, Ok res ->
        Alcotest.(check string)
          (Printf.sprintf "healthy instance %d converges" r.instance)
          "converged"
          (Sim.verdict_name res.Runner.verdict)
      | i, Error msg -> Alcotest.failf "instance %d crashed: %s" i msg)
    rows;
  List.iter
    (fun (s : Experiment.churn_summary) ->
      Alcotest.(check int) "completed" 2 s.completed;
      Alcotest.(check int) "crashed" 1 s.crashed;
      Alcotest.(check int) "converged" 2 s.converged)
    summaries

(* The fig2-style single-event paths still converge under the default
   budget: the watchdog never binds on healthy workloads. *)
let test_default_budget_never_binds () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  let spec =
    { Scenario.dest;
      events = [ Scenario.Fail_link (dest, vtx t 1) ];
      detect_delay = None }
  in
  List.iter
    (fun protocol ->
      let r = Runner.run ~seed:3 protocol t spec in
      Alcotest.(check string)
        (Runner.protocol_name protocol ^ " converges")
        "converged"
        (Sim.verdict_name r.Runner.verdict))
    Runner.all_protocols

let () =
  Alcotest.run "churn"
    [
      ( "recovery",
        [
          Alcotest.test_case "link fail/recover -> oracle" `Quick
            test_link_recover_oracle;
          Alcotest.test_case "node fail/recover -> oracle" `Quick
            test_node_recover_oracle;
          Alcotest.test_case "hybrid link fail/recover" `Quick
            test_hybrid_link_recover;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "flap structure" `Quick test_flap_structure;
          Alcotest.test_case "churn structure" `Quick test_churn_structure;
          Alcotest.test_case "with_resampling error" `Quick
            test_with_resampling_error;
        ] );
      ( "watchdogs",
        [
          Alcotest.test_case "run_hybrid supports the full vocabulary" `Quick
            test_hybrid_full_vocabulary;
          prop_flap_terminates;
          Alcotest.test_case "tiny budget: sweep full of verdicts" `Quick
            test_sweep_tiny_budget_verdicts;
          Alcotest.test_case "crashing instance doesn't abort sweep" `Quick
            test_sweep_survives_crashing_instance;
          Alcotest.test_case "default budget never binds" `Quick
            test_default_budget_never_binds;
        ] );
    ]
