(* Conformance suite for the engine substrate: every engine in
   Runner.engines is driven through the same lifecycle matrix — origin
   announce, link fail -> recover, node fail -> recover, export
   deny -> allow, and slow failure detection — and must quiesce with a
   drained event queue, loop-free forwarding restored for every source,
   and counters consistent with its message totals. A stub engine that
   rejects whole event classes pins the generic Runner's error path. *)

let vtx = Test_support.vtx

(* Re-implements Runner's event application on the packed instance so the
   matrix drives engines directly (no Transient monitor in the way). *)
let rec inject inst sim = function
  | Scenario.Fail_link (u, v) -> Engine.fail_link inst u v
  | Scenario.Fail_node v -> Engine.fail_node inst v
  | Scenario.Deny_export (u, v) -> Engine.deny_export inst u v
  | Scenario.Recover_link (u, v) -> Engine.recover_link inst u v
  | Scenario.Recover_node v -> Engine.recover_node inst v
  | Scenario.Allow_export (u, v) -> Engine.allow_export inst u v
  | Scenario.At (dt, e) ->
    Sim.schedule sim ~delay:dt (fun _ -> inject inst sim e)

(* Every scenario ends with the disturbance undone, so the converged state
   must deliver from every source again. *)
let matrix t ~dest =
  let p = vtx t 1 in
  [
    ("origin announce", 0., []);
    ( "link fail/recover",
      0.,
      [
        Scenario.Fail_link (dest, p);
        Scenario.At (40., Scenario.Recover_link (dest, p));
      ] );
    ( "node fail/recover",
      0.,
      [
        Scenario.Fail_node p;
        Scenario.At (40., Scenario.Recover_node p);
      ] );
    ( "export deny/allow",
      0.,
      [
        Scenario.Deny_export (dest, p);
        Scenario.At (40., Scenario.Allow_export (dest, p));
      ] );
    ( "link fail/recover, slow detection",
      2.,
      [
        Scenario.Fail_link (dest, p);
        Scenario.At (40., Scenario.Recover_link (dest, p));
      ] );
  ]

let max_events = 1_000_000

let check_quiesced label sim =
  Alcotest.(check string)
    (label ^ ": quiesced") "converged"
    (Sim.verdict_name (Sim.run_guarded ~max_events sim));
  Alcotest.(check int) (label ^ ": event queue drained") 0 (Sim.pending sim)

let check_counters label inst =
  let c = Engine.counters inst in
  Alcotest.(check bool) (label ^ ": counters non-negative") true
    (Counters.non_negative c);
  Alcotest.(check int)
    (label ^ ": announcements + withdrawals = message count")
    (Engine.message_count inst) (Counters.messages c)

let test_lifecycle_matrix () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  List.iter
    (fun (engine_name, engine) ->
      List.iter
        (fun (scenario_label, detect_delay, events) ->
          let label = engine_name ^ "/" ^ scenario_label in
          let sim = Sim.create ~seed:7 () in
          let config = { Engine.default_config with seed = 7; detect_delay } in
          let inst = Engine.create engine sim t ~dest config in
          Alcotest.(check string) (label ^ ": name matches its key")
            engine_name (Engine.name inst);
          Engine.start inst;
          check_quiesced (label ^ " (initial)") sim;
          let initial = Counters.snapshot (Engine.counters inst) in
          check_counters (label ^ " (initial)") inst;
          List.iter (inject inst sim) events;
          check_quiesced (label ^ " (after events)") sim;
          check_counters (label ^ " (after events)") inst;
          let final = Engine.counters inst in
          Alcotest.(check bool) (label ^ ": counters monotonic") true
            (final.Counters.announcements >= initial.Counters.announcements
            && final.Counters.withdrawals >= initial.Counters.withdrawals
            && final.Counters.mrai_deferrals >= initial.Counters.mrai_deferrals
            && final.Counters.lost_to_resets >= initial.Counters.lost_to_resets);
          let statuses = Engine.probe inst in
          Alcotest.(check int) (label ^ ": one status per AS")
            (Topology.num_vertices t) (Array.length statuses);
          Array.iteri
            (fun v s ->
              Alcotest.(check string)
                (Printf.sprintf "%s: AS %d delivered after full recovery"
                   label (Topology.asn t v))
                "delivered"
                (Format.asprintf "%a" Fwd_walk.pp_status s))
            statuses)
        (matrix t ~dest))
    Runner.engines

let test_engine_list () =
  Alcotest.(check (list string))
    "the paper engines in bar order, then the hybrid"
    [
      "BGP";
      "R-BGP without RCI";
      "R-BGP";
      "STAMP";
      "STAMP-BGP hybrid (full deployment)";
    ]
    (List.map fst Runner.engines);
  List.iter
    (fun (name, (module E : Engine.S)) ->
      Alcotest.(check string) "key = engine name" name E.name)
    Runner.engines;
  (* the paper protocols resolve to the same engines Runner uses *)
  List.iter
    (fun protocol ->
      let (module E : Engine.S) = Runner.engine_of_protocol protocol in
      Alcotest.(check string) "protocol name = engine name"
        (Runner.protocol_name protocol) E.name)
    Runner.all_protocols

(* A restricted engine: link events only, everything else rejected via
   Engine.unsupported. The generic Runner must surface that as a clear
   Invalid_argument naming the engine and the event kind — the error path
   for engines that model only part of the event vocabulary. *)
let stub_name = "stub (link events only)"

let stub : (module Engine.S) =
  (module struct
    type t = unit

    let name = stub_name
    let create _ _ ~dest:_ _ = ()
    let start () = ()
    let fail_link () _ _ = ()
    let recover_link () _ _ = ()
    let fail_node () _ = Engine.unsupported ~engine:stub_name "node failure"
    let recover_node () _ = Engine.unsupported ~engine:stub_name "node recovery"
    let deny_export () _ _ = Engine.unsupported ~engine:stub_name "export policy"
    let allow_export () _ _ = Engine.unsupported ~engine:stub_name "export policy"
    let probe () = [||]
    let touch_fwd () = ()
    let message_count () = 0
    let last_change () = 0.
    let counters () = Counters.make ()
  end)

let test_unsupported_events_error () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  let run events =
    ignore
      (Runner.run_engine ~seed:1 stub t
         { Scenario.dest; events; detect_delay = None })
  in
  List.iter
    (fun (label, events, what) ->
      Alcotest.check_raises label
        (Invalid_argument
           (Printf.sprintf "Runner: the %s engine does not support %s events"
              stub_name what))
        (fun () -> run events))
    [
      ("node failure", [ Scenario.Fail_node (vtx t 1) ], "node failure");
      ("node recovery", [ Scenario.Recover_node (vtx t 1) ], "node recovery");
      ("export deny", [ Scenario.Deny_export (dest, vtx t 1) ], "export policy");
      ( "export allow",
        [ Scenario.Allow_export (dest, vtx t 1) ],
        "export policy" );
    ];
  (* supported events pass through without tripping the guard *)
  let r =
    Runner.run_engine ~seed:1 stub t
      {
        Scenario.dest;
        events = [ Scenario.Fail_link (dest, vtx t 1) ];
        detect_delay = None;
      }
  in
  Alcotest.(check string) "link events accepted" "converged"
    (Sim.verdict_name r.Runner.verdict)

(* The spec-level detect_delay override reaches every engine: with a slow
   control plane, plain BGP's forwarding is broken at the failure instant
   while the probe's virtual clock has not advanced past the detection
   horizon. *)
let test_detect_delay_uniform () =
  let t = Test_support.diamond_plus () in
  let dest = vtx t 3 in
  List.iter
    (fun (engine_name, engine) ->
      let sim = Sim.create ~seed:7 () in
      let config = { Engine.default_config with seed = 7; detect_delay = 5. } in
      let inst = Engine.create engine sim t ~dest config in
      Engine.start inst;
      ignore (Sim.run_guarded ~max_events sim);
      Engine.fail_link inst dest (vtx t 1);
      ignore (Sim.run_guarded ~max_events sim);
      (* the delayed reaction was scheduled and ran; afterwards the engine
         must have re-quiesced with a sane state *)
      Alcotest.(check int) (engine_name ^ ": drained after delayed detection")
        0 (Sim.pending sim);
      check_counters (engine_name ^ " (delayed detection)") inst)
    Runner.engines

let () =
  Alcotest.run "engine_conformance"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "matrix over all registered engines" `Quick
            test_lifecycle_matrix;
          Alcotest.test_case "detect_delay accepted uniformly" `Quick
            test_detect_delay_uniform;
        ] );
      ( "engines",
        [ Alcotest.test_case "contents and bar order" `Quick test_engine_list ]
      );
      ( "errors",
        [
          Alcotest.test_case "unsupported events -> clear Invalid_argument"
            `Quick test_unsupported_events_error;
        ] );
    ]
