(* Tests for the analysis layer: the transient monitor, scenario
   generators, the runner and the figure-level experiments. *)

(* --- Transient monitor -------------------------------------------------- *)

(* Each AS's status at the baseline, the four checkpoints and the final
   probe of [test_transient_counting]: D delivered, B blackholed, L looped. *)
let script =
  [|
    "DDDDDD" (* AS0 delivered throughout *);
    "BBDDDD" (* AS1 lost until checkpoint 3: transient *);
    "LLLLLL" (* AS2 lost throughout: broken *);
    "BDDDDD" (* AS3 lost at the baseline only: transient *);
    "DDDDDL" (* AS4 lost at the final probe only: broken, never troubled *);
    "DLLLLL" (* AS5 lost from checkpoint 2 on: broken, not transient *);
    "DDLLLD" (* AS6 lost from checkpoint 3, corrected at the final probe *);
  |]

let scripted k =
  Array.map
    (fun row ->
      match row.[k] with
      | 'D' -> Fwd_walk.Delivered
      | 'B' -> Fwd_walk.Blackholed
      | _ -> Fwd_walk.Looped)
    script

(* The windows [script] yields when probe [k] (0-based) is taken at
   [times.(k)] and the run ends at [until]. *)
let script_windows times ~until =
  [
    (1, Fwd_walk.Blackholed, times.(0), times.(2));
    (2, Fwd_walk.Looped, times.(0), until);
    (3, Fwd_walk.Blackholed, times.(0), times.(1));
    (5, Fwd_walk.Looped, times.(1), until);
    (6, Fwd_walk.Looped, times.(2), times.(5));
    (4, Fwd_walk.Looped, times.(5), until);
  ]

(* Drive the monitor with [script] as its probe. The final probe is the one
   taken once no event is pending. *)
let test_transient_counting () =
  let sim = Sim.create () in
  (* schedule a few spaced events so the monitor takes checkpoints *)
  for i = 1 to 5 do
    Sim.schedule sim ~delay:(0.03 *. float_of_int i) (fun _ -> ())
  done;
  let times = Array.make 6 nan in
  let calls = ref 0 in
  let probe () =
    let k = if Sim.pending sim = 0 then 5 else min !calls 4 in
    incr calls;
    times.(k) <- Sim.now sim;
    scripted k
  in
  let o, _ = Transient.run_guarded sim ~interval:0.02 ~probe () in
  Alcotest.(check int) "six probes" 6 o.Transient.checkpoints;
  Alcotest.(check int) "transient: AS1, AS3, AS6" 3
    (Transient.transient_count o);
  Alcotest.(check int) "broken: AS2, AS4, AS5" 3
    (Transient.broken o.Transient.outages);
  Alcotest.(check (float 0.)) "last change at checkpoint 3" times.(2)
    o.Transient.last_status_change;
  Alcotest.(check bool) "windows" true
    (script_windows times ~until:times.(5)
    = Transient.windows o.Transient.outages ~until:times.(5));
  (* a final observation never troubles an AS, even one a later
     observation finds delivered *)
  let t = Transient.outages () in
  Transient.observe t ~at:1. Transient.Final 0 Fwd_walk.Looped;
  Transient.observe t ~at:2. Transient.Checkpoint 0 Fwd_walk.Delivered;
  Alcotest.(check int) "final observation never troubles" 0
    (Transient.transient t)

(* The same observations as Status events: baseline at the injection
   instant, changes at checkpoints 1.25 .. 2.0 s, the final probe's
   corrections (unchanged) at 2.5 s. *)
let test_timeline_of_status_events () =
  let times = [| 1.0; 1.25; 1.5; 1.75; 2.0; 2.5 |] in
  let at vtime loc kind = { Trace.vtime; seq = 0; engine = "E"; loc; kind } in
  let status k v ~changed =
    at times.(k) (Trace.Node v)
      (Trace.Status
         { status = Fwd_walk.string_of_status (scripted k).(v); changed })
  in
  let ases = List.init (Array.length script) Fun.id in
  let moved k =
    List.filter (fun v -> script.(v).[k] <> script.(v).[k - 1]) ases
  in
  let events =
    (at 1.0 Trace.Net (Trace.Phase "events-injected")
    :: List.map (status 0 ~changed:false) ases)
    @ List.concat_map
        (fun k -> List.map (status k ~changed:true) (moved k))
        [ 1; 2; 3; 4 ]
    @ List.map (status 5 ~changed:false) (moved 5)
    @ [ at 2.5 Trace.Net (Trace.Phase "final") ]
  in
  let tl = Timeline.of_events events in
  Alcotest.(check int) "transient" 3 tl.Timeline.transient_count;
  Alcotest.(check int) "broken" 3 tl.Timeline.broken_after;
  Alcotest.(check (float 0.)) "recovery at checkpoint 3" 0.5
    tl.Timeline.recovery_delay;
  Alcotest.(check (option (float 0.))) "first loss at the baseline" (Some 1.0)
    tl.Timeline.first_loss;
  let named (asn, s, from_t, until_t) =
    { Timeline.asn; status = Fwd_walk.string_of_status s; from_t; until_t }
  in
  Alcotest.(check bool) "windows" true
    (List.map named (script_windows times ~until:2.5) = tl.Timeline.windows)

let test_transient_none () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:0.01 (fun _ -> ());
  let probe () = [| Fwd_walk.Delivered; Fwd_walk.Delivered |] in
  let o, _ = Transient.run_guarded sim ~probe () in
  Alcotest.(check int) "none" 0 (Transient.transient_count o)

let test_transient_event_budget () =
  let sim = Sim.create () in
  (* an event that reschedules itself forever *)
  let rec tick s = Sim.schedule s ~delay:0.001 tick in
  tick sim;
  let probe () = [| Fwd_walk.Delivered |] in
  let _, verdict = Transient.run_guarded sim ~max_events:100 ~probe () in
  Alcotest.(check string) "budget" "event-budget-exhausted"
    (Sim.verdict_name verdict);
  Alcotest.(check bool) "events still pending" true (Sim.pending sim > 0)

(* --- Scenario generators ------------------------------------------------ *)

let topo200 = lazy (Topo_gen.generate (Topo_gen.default_params ~n:200 ()))

let test_single_link_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 1 |] in
  for _ = 1 to 50 do
    match Scenario.single_link st t with
    | { Scenario.dest; events = [ Scenario.Fail_link (u, v) ]; _ } ->
      Alcotest.(check bool) "dest multi-homed" true (Topology.is_multi_homed t dest);
      Alcotest.(check int) "link starts at dest" dest u;
      Alcotest.(check bool) "fails a provider link" true
        (Topology.rel t u v = Some Relationship.Provider)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_two_links_apart_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 2 |] in
  for _ = 1 to 50 do
    match Scenario.two_links_apart st t with
    | {
     Scenario.dest;
     events = [ Scenario.Fail_link (u1, v1); Scenario.Fail_link (u2, v2) ];
     _;
    } ->
      Alcotest.(check int) "first link at dest" dest u1;
      (* the two failed links share no AS *)
      let shared =
        List.exists (fun x -> x = u1 || x = v1) [ u2; v2 ]
      in
      Alcotest.(check bool) "links disjoint" false shared;
      Alcotest.(check bool) "second is a provider link" true
        (Topology.rel t u2 v2 = Some Relationship.Provider);
      (* second link lies in the destination's uphill cone *)
      let cone = Tiers.uphill_reachable t dest in
      Alcotest.(check bool) "second in cone" true cone.(u2)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_two_links_shared_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 50 do
    match Scenario.two_links_shared st t with
    | {
     Scenario.dest;
     events = [ Scenario.Fail_link (u1, v1); Scenario.Fail_link (u2, v2) ];
     _;
    } ->
      Alcotest.(check int) "first at dest" dest u1;
      Alcotest.(check int) "shared AS" v1 u2;
      Alcotest.(check bool) "second is provider link of the provider" true
        (Topology.rel t u2 v2 = Some Relationship.Provider)
    | _ -> Alcotest.fail "unexpected shape"
  done

let test_node_failure_shape () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 4 |] in
  match Scenario.node_failure st t with
  | { Scenario.dest; events = [ Scenario.Fail_node p ]; _ } ->
    Alcotest.(check bool) "fails a provider of dest" true
      (Topology.rel t dest p = Some Relationship.Provider)
  | _ -> Alcotest.fail "unexpected shape"

let test_scenario_deterministic () =
  let t = Lazy.force topo200 in
  let gen seed =
    let st = Random.State.make [| seed |] in
    List.init 5 (fun _ -> Scenario.single_link st t)
  in
  Alcotest.(check bool) "same" true (gen 7 = gen 7);
  Alcotest.(check bool) "different" true (gen 7 <> gen 8)

(* --- Runner -------------------------------------------------------------- *)

let test_runner_deterministic () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 5 |] in
  let spec = Scenario.single_link st t in
  let r1 = Runner.run ~seed:3 Runner.Bgp t spec in
  let r2 = Runner.run ~seed:3 Runner.Bgp t spec in
  Alcotest.(check bool) "identical" true (r1 = r2)

let test_runner_all_protocols_complete () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 6 |] in
  let spec = Scenario.single_link st t in
  List.iter
    (fun proto ->
      let r = Runner.run proto t spec in
      Alcotest.(check bool)
        (Printf.sprintf "%s: no permanent loss" (Runner.protocol_name proto))
        true
        (r.Runner.broken_after = 0);
      Alcotest.(check bool) "messages counted" true (r.Runner.messages_initial > 0))
    Runner.all_protocols

let test_runner_node_failure_completes () =
  let t = Lazy.force topo200 in
  let st = Random.State.make [| 8 |] in
  let spec = Scenario.node_failure st t in
  List.iter
    (fun proto -> ignore (Runner.run proto t spec))
    Runner.all_protocols

(* --- Golden runner values ------------------------------------------------- *)

(* Full Runner.run records on the diamond_plus fixture, every protocol,
   fixed seed — pinned bit-for-bit (floats included) so that executor
   changes (e.g. the Parallel domain-pool refit) provably change no
   numbers. If a deliberate protocol/simulator change moves these values,
   re-pin them and say so in the commit. *)

let golden_result =
  Alcotest.testable
    (fun ppf (r : Runner.result) ->
      Format.fprintf ppf
        "{ transient=%d; broken=%d; conv=%.17g; rec=%.17g; mi=%d; me=%d; \
         cp=%d; %a; verdict=%s }"
        r.Runner.transient_count r.Runner.broken_after
        r.Runner.convergence_delay r.Runner.recovery_delay
        r.Runner.messages_initial r.Runner.messages_event r.Runner.checkpoints
        Counters.pp r.Runner.counters
        (Sim.verdict_name r.Runner.verdict))
    ( = )

let golden_expectations =
  (* (label, event-builder, per-protocol expected record) *)
  let mk transient_count broken_after convergence_delay recovery_delay
      messages_initial messages_event checkpoints (ann, wd, mrai, lost) =
    {
      Runner.transient_count;
      broken_after;
      convergence_delay;
      recovery_delay;
      messages_initial;
      messages_event;
      checkpoints;
      counters =
        {
          Counters.announcements = ann;
          withdrawals = wd;
          mrai_deferrals = mrai;
          lost_to_resets = lost;
        };
      verdict = Sim.Converged;
      (* golden runs pass ~validate:`Off so the record stays a pure
         function of the simulation; certificate threading is covered in
         test_staticcheck *)
      diagnostics = [];
      certificate = None;
      timeline = None;
    }
  in
  [
    ( "link",
      (fun vtx -> [ Scenario.Fail_link (vtx 3, vtx 1) ]),
      [
        (Runner.Bgp, mk 0 0 0.019184569160348566 0. 9 4 3 (10, 3, 0, 0));
        (Runner.Rbgp_no_rci, mk 0 0 0.012946428140732227 0. 11 6 3 (12, 5, 0, 0));
        (Runner.Rbgp, mk 0 0 0.012946428140732227 0. 11 6 3 (12, 5, 0, 0));
        (Runner.Stamp, mk 0 0 0.034618057854001807 0. 14 10 5 (19, 5, 1, 0));
      ] );
    ( "node",
      (fun vtx -> [ Scenario.Fail_node (vtx 1) ]),
      [
        (Runner.Bgp, mk 0 1 0. 0. 9 1 2 (9, 1, 0, 0));
        (Runner.Rbgp_no_rci, mk 0 1 0. 0. 11 2 3 (11, 2, 0, 0));
        (Runner.Rbgp, mk 0 1 0. 0. 11 2 3 (11, 2, 0, 0));
        (Runner.Stamp, mk 0 1 0.04159651006293702 0. 14 6 5 (17, 3, 1, 0));
      ] );
  ]

let test_runner_golden () =
  let topo = Test_support.diamond_plus () in
  let vtx = Test_support.vtx topo in
  List.iter
    (fun (label, events, expected) ->
      let spec =
        { Scenario.dest = vtx 3; events = events vtx; detect_delay = None }
      in
      List.iter
        (fun (protocol, want) ->
          let got = Runner.run ~seed:42 ~validate:`Off protocol topo spec in
          Alcotest.check golden_result
            (Printf.sprintf "%s/%s" label (Runner.protocol_name protocol))
            want got)
        expected)
    golden_expectations

let test_runner_golden_via_pool () =
  (* the same pinned records must come out of the domain pool, for any
     worker count *)
  let topo = Test_support.diamond_plus () in
  let vtx = Test_support.vtx topo in
  List.iter
    (fun workers ->
      Test_support.with_pool ~jobs:workers (fun pool ->
          List.iter
            (fun (label, events, expected) ->
              let spec =
                { Scenario.dest = vtx 3; events = events vtx; detect_delay = None }
              in
              let got =
                Parallel.map pool
                  (fun (protocol, _) ->
                    Runner.run ~seed:42 ~validate:`Off protocol topo spec)
                  expected
              in
              List.iter2
                (fun (protocol, want) got ->
                  Alcotest.check golden_result
                    (Printf.sprintf "jobs=%d %s/%s" workers label
                       (Runner.protocol_name protocol))
                    want got)
                expected got)
            golden_expectations))
    [ 1; 4 ]

(* --- Experiments ---------------------------------------------------------- *)

let test_fig1_fields_consistent () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:120 ()) in
  let f = Experiment.fig1 ~samples:30 ~intelligent_samples:10 t in
  Alcotest.(check bool) "mean in [0,1]" true
    (f.Experiment.mean_random >= 0. && f.Experiment.mean_random <= 1.);
  Alcotest.(check bool) "intelligent >= random - noise" true
    (f.Experiment.mean_intelligent >= f.Experiment.mean_random -. 0.1);
  Alcotest.(check bool) "fractions consistent" true
    (f.Experiment.frac_below_07 >= 0.
    && f.Experiment.frac_above_09 >= 0.
    && f.Experiment.frac_below_07 +. f.Experiment.frac_above_09 <= 1.);
  Alcotest.(check int) "cdf covers all destinations"
    (Topology.num_vertices t)
    (Cdf.size f.Experiment.cdf)

let test_failure_bars_ordering () =
  (* the paper's qualitative ordering on the single-link workload:
     BGP worst, R-BGP with RCI at zero, STAMP far below BGP *)
  let t = Topo_gen.generate (Topo_gen.default_params ~n:200 ()) in
  let bars =
    Experiment.failure_bars ~instances:6 ~scenario:Scenario.single_link t
  in
  let get p = List.assoc p bars in
  Alcotest.(check bool) "bgp >= norci" true
    (get Runner.Bgp >= get Runner.Rbgp_no_rci);
  Alcotest.(check (float 1e-9)) "rbgp with rci = 0" 0. (get Runner.Rbgp);
  Alcotest.(check bool) "stamp <= bgp" true (get Runner.Stamp <= get Runner.Bgp)

let test_overhead_and_delay () =
  let t = Topo_gen.generate (Topo_gen.default_params ~n:150 ()) in
  let rows = Experiment.overhead_and_delay ~instances:4 t in
  Alcotest.(check int) "four protocols" 4 (List.length rows);
  let find p =
    List.find (fun (r : Experiment.overhead_result) -> r.protocol = p) rows
  in
  let bgp = find Runner.Bgp and stamp = find Runner.Stamp in
  Alcotest.(check bool) "stamp < 2x bgp messages (Section 6.3)" true
    (stamp.Experiment.avg_messages_initial
    < 2. *. bgp.Experiment.avg_messages_initial);
  List.iter
    (fun r ->
      Alcotest.(check bool) "delay non-negative" true
        (r.Experiment.avg_delay >= 0.))
    rows

(* --- Sweep characterisation ----------------------------------------------- *)

(* Every Experiment sweep on a tiny topology, pinned as %.17g strings: a
   change to how sweeps build, seed, distribute or group their jobs that
   moves any number fails here. Seed 11 draws instances on which BGP and
   R-BGP without RCI show transient problems and packet losses. Re-pin
   only for a deliberate behaviour change, and say so in the commit. *)

let topo80 = lazy (Topo_gen.generate (Topo_gen.default_params ~n:80 ()))

let g = Printf.sprintf "%.17g"

let bars_line (bars : Experiment.bars) =
  String.concat " "
    (List.map (fun (p, v) -> Runner.protocol_name p ^ "=" ^ g v) bars)

(* A scenario that fails a link that does not exist, so the churn sweep's
   crash capture is exercised too. *)
let bogus_link st topo =
  let spec = Scenario.single_link st topo in
  { spec with Scenario.events = [ Scenario.Fail_link (spec.dest, spec.dest) ] }

let sweep_lines () =
  let t = Lazy.force topo80 in
  let instances = 2 and seed = 11 in
  let stats =
    Experiment.failure_bars_stats ~instances ~seed
      ~scenario:Scenario.single_link t
  in
  let churn_lines ~budget ~scenario =
    let rows, summaries =
      Experiment.churn_sweep ~instances ~seed ~budget ~scenario t
    in
    List.map
      (fun (r : Experiment.churn_row) ->
        Printf.sprintf "churn row %s #%d seed=%d %s"
          (Runner.protocol_name r.row_protocol)
          r.instance r.job_seed
          (match r.outcome with
          | Error e -> "error " ^ e
          | Ok r ->
            Printf.sprintf
              "transients=%d broken=%d events=%d cp=%d conv=%s rec=%s %s"
              r.transient_count r.broken_after r.messages_event r.checkpoints
              (g r.convergence_delay) (g r.recovery_delay)
              (Sim.verdict_name r.verdict)))
      rows
    @ List.map
        (fun (s : Experiment.churn_summary) ->
          Printf.sprintf
            "churn summary %s completed=%d crashed=%d conv=%d ev=%d tm=%d \
             transients=%s events=%s"
            (Runner.protocol_name s.protocol)
            s.completed s.crashed s.converged s.event_budget_exhausted
            s.time_budget_exhausted (g s.avg_transients)
            (g s.avg_messages_event))
        summaries
  in
  [
    "failure_bars "
    ^ bars_line
        (Experiment.failure_bars ~instances ~seed
           ~scenario:Scenario.single_link t);
    "failure_bars node "
    ^ bars_line
        (Experiment.failure_bars ~instances ~seed
           ~scenario:Scenario.node_failure t);
  ]
  @ List.map
      (fun (p, (s : Stat.summary)) ->
        Printf.sprintf "stats %s n=%d mean=%s sd=%s min=%s max=%s median=%s"
          (Runner.protocol_name p) s.n (g s.mean) (g s.stddev) (g s.min)
          (g s.max) (g s.median))
      stats
  @ List.map
      (fun (r : Experiment.overhead_result) ->
        Printf.sprintf "overhead %s init=%s event=%s delay=%s recovery=%s"
          (Runner.protocol_name r.protocol)
          (g r.avg_messages_initial) (g r.avg_messages_event) (g r.avg_delay)
          (g r.avg_recovery))
      (Experiment.overhead_and_delay ~instances ~seed t)
  @ List.map
      (fun (k, v) -> Printf.sprintf "partial tier<=%d %s" k (g v))
      (Experiment.partial_deployment_dynamic ~instances ~seed ~max_tier:1 t)
  @ List.concat_map
      (fun (mrai, rows) ->
        List.map
          (fun (p, tr, delay) ->
            Printf.sprintf "mrai %s %s transients=%s delay=%s" (g mrai)
              (Runner.protocol_name p) (g tr) (g delay))
          rows)
      (Experiment.ablation_mrai ~instances ~seed ~values:[ 30.; 5. ] t)
  @ List.map
      (fun (label, v) -> Printf.sprintf "stamp variant %s %s" label (g v))
      (Experiment.ablation_stamp_variants ~instances ~seed t)
  @ List.map
      (fun (i, v) -> Printf.sprintf "probe interval %s %s" (g i) (g v))
      (Experiment.ablation_probe_interval ~instances ~seed
         ~values:[ 0.02; 0.5 ] t)
  @ List.map
      (fun (d, bars) -> Printf.sprintf "detection %s %s" (g d) (bars_line bars))
      (Experiment.ablation_detection ~instances ~seed ~values:[ 0.; 2. ] t)
  @ List.map
      (fun (label, bars) ->
        Printf.sprintf "topology %s %s" label (bars_line bars))
      (Experiment.ablation_topology ~instances ~seed ~n:80 ())
  @ List.map
      (fun (p, share) ->
        Printf.sprintf "motivation %s %s" (Runner.protocol_name p) (g share))
      (Experiment.motivation_loss_composition ~instances ~seed t)
  @ churn_lines ~budget:Runner.default_budget
      ~scenario:(Scenario.churn ~rate:0.5 ~duration:20.)
  @ churn_lines
      ~budget:{ Runner.max_events = 1500; max_vtime = 86_400. }
      ~scenario:(Scenario.flap ~period:60. ~count:3)
  @ churn_lines
      ~budget:{ Runner.max_events = 50; max_vtime = 86_400. }
      ~scenario:Scenario.single_link
  @ churn_lines ~budget:Runner.default_budget ~scenario:bogus_link
  @
  let r = Experiment.trace_overhead ~instances ~seed t in
  [
    Printf.sprintf "trace_overhead identical=%b events=%d"
      r.Experiment.identical r.Experiment.traced_events;
  ]

let expected_sweep_lines =
  [
    "failure_bars BGP=33 R-BGP without RCI=20 R-BGP=0 STAMP=0";
    "failure_bars node BGP=18 R-BGP without RCI=18 R-BGP=3 STAMP=0";
    "stats BGP n=2 mean=33 sd=15 min=18 max=48 median=33";
    "stats R-BGP without RCI n=2 mean=20 sd=20 min=0 max=40 median=20";
    "stats R-BGP n=2 mean=0 sd=0 min=0 max=0 median=0";
    "stats STAMP n=2 mean=0 sd=0 min=0 max=0 median=0";
    "overhead BGP init=301.5 event=194 delay=41.789452571703691 recovery=12.020000000001689";
    "overhead R-BGP without RCI init=400 event=308 delay=41.784935887169212 recovery=11.900000000001675";
    "overhead R-BGP init=400 event=241.5 delay=29.90636965280526 recovery=0";
    "overhead STAMP init=419.5 event=411.5 delay=57.638066969416499 recovery=0";
    "partial tier<=0 33";
    "partial tier<=1 33";
    "mrai 30 BGP transients=33 delay=41.789452571703691";
    "mrai 30 R-BGP without RCI transients=20 delay=41.784935887169212";
    "mrai 30 R-BGP transients=0 delay=29.90636965280526";
    "mrai 30 STAMP transients=0 delay=57.638066969416499";
    "mrai 5 BGP transients=33 delay=6.9827294421384005";
    "mrai 5 R-BGP without RCI transients=20 delay=6.9795650614674045";
    "mrai 5 R-BGP transients=0 delay=4.9779012363208253";
    "mrai 5 STAMP transients=0 delay=9.6331532086483804";
    "stamp variant baseline (lock-only blue, random colouring) 0";
    "stamp variant spread unlocked blue to providers 0";
    "stamp variant intelligent locked-blue colouring 0";
    "probe interval 0.02 33";
    "probe interval 0.5 24";
    "detection 0 BGP=33 R-BGP without RCI=20 R-BGP=0 STAMP=0";
    "detection 2 BGP=50.5 R-BGP without RCI=20 R-BGP=0 STAMP=0";
    "topology default BGP=29 R-BGP without RCI=23.5 R-BGP=0 STAMP=20";
    "topology sparse multi-homing BGP=0 R-BGP without RCI=0 R-BGP=0 STAMP=0";
    "topology dense multi-homing BGP=20 R-BGP without RCI=16 R-BGP=0 STAMP=0";
    "topology no mid-tier peering BGP=19.5 R-BGP without RCI=0 R-BGP=0 STAMP=0";
    "topology heavy peering BGP=27 R-BGP without RCI=0 R-BGP=0 STAMP=0";
    "motivation BGP 0.10344827586206896";
    "motivation R-BGP without RCI 0.095744680851063829";
    "motivation R-BGP nan";
    "motivation STAMP nan";
    "churn row BGP #0 seed=11 transients=71 broken=0 events=504 cp=382 conv=70.633223438035841 rec=41.500000000003467 converged";
    "churn row BGP #1 seed=12 transients=0 broken=79 events=240 cp=162 conv=14.844337268522533 rec=14.780000000001959 converged";
    "churn row R-BGP without RCI #0 seed=11 transients=71 broken=0 events=694 cp=419 conv=70.639889409026082 rec=23.980000000003393 converged";
    "churn row R-BGP without RCI #1 seed=12 transients=0 broken=79 events=374 cp=167 conv=14.852990824669376 rec=14.780000000001955 converged";
    "churn row R-BGP #0 seed=11 transients=70 broken=0 events=672 cp=415 conv=70.634231613965625 rec=23.980000000003393 converged";
    "churn row R-BGP #1 seed=12 transients=0 broken=79 events=324 cp=119 conv=14.813429416908939 rec=14.780000000001955 converged";
    "churn row STAMP #0 seed=11 transients=71 broken=0 events=1145 cp=519 conv=61.851342100105228 rec=37.080000000004347 converged";
    "churn row STAMP #1 seed=12 transients=0 broken=79 events=680 cp=202 conv=14.851692654846513 rec=14.780000000001952 converged";
    "churn summary BGP completed=2 crashed=0 conv=2 ev=0 tm=0 transients=35.5 events=372";
    "churn summary R-BGP without RCI completed=2 crashed=0 conv=2 ev=0 tm=0 transients=35.5 events=534";
    "churn summary R-BGP completed=2 crashed=0 conv=2 ev=0 tm=0 transients=35 events=498";
    "churn summary STAMP completed=2 crashed=0 conv=2 ev=0 tm=0 transients=35.5 events=912.5";
    "churn row BGP #0 seed=11 transients=18 broken=0 events=647 cp=631 conv=90.062510554209211 rec=0.059999999999998721 event-budget-exhausted";
    "churn row BGP #1 seed=12 transients=43 broken=5 events=737 cp=669 conv=143.67027783280585 rec=120.06000000000347 event-budget-exhausted";
    "churn row R-BGP without RCI #0 seed=11 transients=0 broken=0 events=703 cp=454 conv=60.063506914341701 rec=0 event-budget-exhausted";
    "churn row R-BGP without RCI #1 seed=12 transients=40 broken=0 events=795 cp=543 conv=90.064029932350024 rec=83.799999999995066 event-budget-exhausted";
    "churn row R-BGP #0 seed=11 transients=0 broken=0 events=648 cp=529 conv=70.058384817446111 rec=0 event-budget-exhausted";
    "churn row R-BGP #1 seed=12 transients=0 broken=0 events=780 cp=534 conv=94.274625783706796 rec=0 event-budget-exhausted";
    "churn row STAMP #0 seed=11 transients=0 broken=0 events=709 cp=482 conv=60.03483075381078 rec=0 event-budget-exhausted";
    "churn row STAMP #1 seed=12 transients=0 broken=0 events=662 cp=553 conv=76.493787899446133 rec=0 event-budget-exhausted";
    "churn summary BGP completed=2 crashed=0 conv=0 ev=2 tm=0 transients=30.5 events=692";
    "churn summary R-BGP without RCI completed=2 crashed=0 conv=0 ev=2 tm=0 transients=20 events=749";
    "churn summary R-BGP completed=2 crashed=0 conv=0 ev=2 tm=0 transients=0 events=714";
    "churn summary STAMP completed=2 crashed=0 conv=0 ev=2 tm=0 transients=0 events=685.5";
    "churn row BGP #0 seed=11 transients=0 broken=38 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row BGP #1 seed=12 transients=0 broken=42 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row R-BGP without RCI #0 seed=11 transients=0 broken=38 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row R-BGP without RCI #1 seed=12 transients=0 broken=42 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row R-BGP #0 seed=11 transients=0 broken=38 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row R-BGP #1 seed=12 transients=0 broken=42 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row STAMP #0 seed=11 transients=0 broken=40 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn row STAMP #1 seed=12 transients=0 broken=42 events=0 cp=1 conv=0 rec=0 event-budget-exhausted";
    "churn summary BGP completed=2 crashed=0 conv=0 ev=2 tm=0 transients=0 events=0";
    "churn summary R-BGP without RCI completed=2 crashed=0 conv=0 ev=2 tm=0 transients=0 events=0";
    "churn summary R-BGP completed=2 crashed=0 conv=0 ev=2 tm=0 transients=0 events=0";
    "churn summary STAMP completed=2 crashed=0 conv=0 ev=2 tm=0 transients=0 events=0";
    "churn row BGP #0 seed=11 error Invalid_argument(\"Bgp_net.fail_link: vertices not adjacent\")";
    "churn row BGP #1 seed=12 error Invalid_argument(\"Bgp_net.fail_link: vertices not adjacent\")";
    "churn row R-BGP without RCI #0 seed=11 error Invalid_argument(\"Rbgp_net.fail_link: vertices not adjacent\")";
    "churn row R-BGP without RCI #1 seed=12 error Invalid_argument(\"Rbgp_net.fail_link: vertices not adjacent\")";
    "churn row R-BGP #0 seed=11 error Invalid_argument(\"Rbgp_net.fail_link: vertices not adjacent\")";
    "churn row R-BGP #1 seed=12 error Invalid_argument(\"Rbgp_net.fail_link: vertices not adjacent\")";
    "churn row STAMP #0 seed=11 error Invalid_argument(\"Stamp_net.fail_link: vertices not adjacent\")";
    "churn row STAMP #1 seed=12 error Invalid_argument(\"Stamp_net.fail_link: vertices not adjacent\")";
    "churn summary BGP completed=0 crashed=2 conv=0 ev=0 tm=0 transients=nan events=nan";
    "churn summary R-BGP without RCI completed=0 crashed=2 conv=0 ev=0 tm=0 transients=nan events=nan";
    "churn summary R-BGP completed=0 crashed=2 conv=0 ev=0 tm=0 transients=nan events=nan";
    "churn summary STAMP completed=0 crashed=2 conv=0 ev=0 tm=0 transients=nan events=nan";
    "trace_overhead identical=true events=19879";
  ]

let test_sweep_characterisation () =
  let got = sweep_lines () in
  if got <> expected_sweep_lines then begin
    List.iter print_endline got;
    Alcotest.(check (list string)) "sweep outputs" expected_sweep_lines got
  end

let () =
  Alcotest.run "analysis"
    [
      ( "transient",
        [
          Alcotest.test_case "counting" `Quick test_transient_counting;
          Alcotest.test_case "timeline of status events" `Quick
            test_timeline_of_status_events;
          Alcotest.test_case "none" `Quick test_transient_none;
          Alcotest.test_case "event budget" `Quick test_transient_event_budget;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "single link" `Quick test_single_link_shape;
          Alcotest.test_case "two apart" `Quick test_two_links_apart_shape;
          Alcotest.test_case "two shared" `Quick test_two_links_shared_shape;
          Alcotest.test_case "node failure" `Quick test_node_failure_shape;
          Alcotest.test_case "deterministic" `Quick test_scenario_deterministic;
        ] );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "all protocols" `Quick
            test_runner_all_protocols_complete;
          Alcotest.test_case "node failure" `Quick
            test_runner_node_failure_completes;
          Alcotest.test_case "golden values (diamond_plus)" `Quick
            test_runner_golden;
          Alcotest.test_case "golden values via pool" `Quick
            test_runner_golden_via_pool;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "fig1 fields" `Quick test_fig1_fields_consistent;
          Alcotest.test_case "bars ordering" `Quick test_failure_bars_ordering;
          Alcotest.test_case "overhead and delay" `Quick test_overhead_and_delay;
          Alcotest.test_case "sweep characterisation" `Quick
            test_sweep_characterisation;
        ] );
    ]
