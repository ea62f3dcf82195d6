(* Conformance suite for the engine substrate: every engine in
   Runner.engines is driven through the same lifecycle matrix — origin
   announce, link fail -> recover, node fail -> recover, export
   deny -> allow, and slow failure detection — and must quiesce with a
   drained event queue, loop-free forwarding restored for every source,
   and counters consistent with its message totals. A stub engine that
   rejects whole event classes pins the generic Runner's error path.

   Characterisation pins: every engine, plus a tier <= 1 partial
   deployment, on seven scenario families x two detection delays x two
   generated graphs, one line per run with the MD5 of its normalised trace
   (engine ids blanked) and its canonical result, stored in
   test/golden/engine_pins.txt. Regenerate after a deliberate change with

     ENGINE_PINS=$PWD/test/golden dune exec test/test_engine_conformance.exe

   and name the rows that moved in the commit. *)

let vtx = Test_support.vtx

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
          List.iter (Runner.inject ~trace:Trace.null t inst sim) events;
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

(* --- a failure detected after its link recovered ------------------------ *)

(* Every engine of [Runner.engines], driven through its net so the
   converged tables can be read. [table] is the BGP fixed point the net
   must reach ([None] for STAMP, whose red and blue tables are not). *)
type flap_net = {
  start : unit -> unit;
  fail_link : Topology.vertex -> Topology.vertex -> unit;
  recover_link : Topology.vertex -> Topology.vertex -> unit;
  table : (unit -> Static_route.table) option;
  probe : unit -> Fwd_walk.status array;
}

let flap_nets =
  let bgp ?deployed sim topo ~dest ~detect_delay =
    let n = Bgp_net.create sim topo ~dest ?deployed ~detect_delay () in
    {
      start = (fun () -> Bgp_net.start n);
      fail_link = Bgp_net.fail_link n;
      recover_link = Bgp_net.recover_link n;
      table = Some (fun () -> Bgp_net.to_table n);
      probe = (fun () -> Bgp_net.walk_all n);
    }
  and rbgp ~rci sim topo ~dest ~detect_delay =
    let n = Rbgp_net.create sim topo ~dest ~rci ~detect_delay () in
    {
      start = (fun () -> Rbgp_net.start n);
      fail_link = Rbgp_net.fail_link n;
      recover_link = Rbgp_net.recover_link n;
      table = Some (fun () -> Rbgp_net.to_table n);
      probe = (fun () -> Rbgp_net.walk_all n);
    }
  and stamp sim topo ~dest ~detect_delay =
    let coloring =
      Coloring.create Coloring.Random_choice ~seed:7 topo ~dest
    in
    let n = Stamp_net.create sim topo ~dest ~coloring ~detect_delay () in
    {
      start = (fun () -> Stamp_net.start n);
      fail_link = Stamp_net.fail_link n;
      recover_link = Stamp_net.recover_link n;
      table = None;
      probe = (fun () -> Stamp_net.walk_all n);
    }
  in
  [
    ("BGP", bgp ?deployed:None);
    ("R-BGP without RCI", rbgp ~rci:false);
    ("R-BGP", rbgp ~rci:true);
    ("STAMP", stamp);
    ("STAMP-BGP hybrid (full deployment)", bgp ~deployed:(fun _ -> true));
  ]

(* With a 1.5 s detection delay, a link fails and recovers 0.5 s later,
   before the failure is detected. The recovery resets the session and
   re-advertises; the failure's delayed reaction must then do nothing, or
   it forgets both sides' routes on a live link and nothing re-announces
   them. Every net must end at its stable state: the BGP fixed point, and
   delivery from every AS. *)
let test_recovery_inside_detection_window () =
  Alcotest.(check (list string))
    "one net per registered engine" (List.map fst Runner.engines)
    (List.map fst flap_nets);
  List.iter
    (fun (name, make) ->
      for seed = 1 to 20 do
        let topo = Topo_gen.generate (Topo_gen.default_params ~seed ~n:80 ()) in
        let spec = Scenario.single_link (Random.State.make [| seed |]) topo in
        let u, v =
          match spec.events with
          | [ Scenario.Fail_link (u, v) ] -> (u, v)
          | _ -> Alcotest.fail "single_link: expected one link failure"
        in
        let dest = spec.dest in
        let sim = Sim.create ~seed () in
        let net = make sim topo ~dest ~detect_delay:1.5 in
        net.start ();
        check_quiesced name sim;
        net.fail_link u v;
        Sim.schedule sim ~delay:0.5 (fun _ -> net.recover_link u v);
        check_quiesced name sim;
        let label = Printf.sprintf "%s, seed %d" name seed in
        (match net.table with
        | Some table ->
          Alcotest.(check bool)
            (label ^ ": BGP fixed point") true
            (table () = Static_route.compute topo ~dest)
        | None -> ());
        Alcotest.(check bool)
          (label ^ ": every AS delivers") true
          (Array.for_all (Fwd_walk.equal_status Fwd_walk.Delivered)
             (net.probe ()))
      done)
    flap_nets

(* --- characterisation pins --------------------------------------------- *)

(* Stable stems, not display names; [List.combine] fails loudly if the
   engine list changes. *)
let pin_engines topo =
  let tiers = Tiers.classify topo in
  List.combine
    [ "bgp"; "rbgp_norci"; "rbgp"; "stamp"; "hybrid_full" ]
    (List.map snd Runner.engines)
  @ [ ("hybrid_t1", Bgp_engine.hybrid ~deployed:(fun v -> tiers.(v) <= 1) ()) ]

let undo = function
  | Scenario.Fail_link (u, v) -> Scenario.Recover_link (u, v)
  | Scenario.Fail_node v -> Scenario.Recover_node v
  | Scenario.Deny_export (u, v) -> Scenario.Allow_export (u, v)
  | _ -> invalid_arg "undo: not a disturbance"

(* The disturbance, undone 40 s later. *)
let undone (spec : Scenario.spec) =
  {
    spec with
    events =
      spec.events @ List.map (fun e -> Scenario.At (40., undo e)) spec.events;
  }

(* A non-destination AS with customers stops exporting to every neighbour.
   Unlike [Scenario.policy_withdraw]'s origin, it holds routes (and R-BGP
   failover paths) of its own to withdraw. *)
let transit_export st topo (spec : Scenario.spec) =
  let n = Topology.num_vertices topo in
  let rec pick () =
    let v = Random.State.int st n in
    if v <> spec.dest && Array.length (Topology.customers topo v) > 0 then v
    else pick ()
  in
  let v = pick () in
  undone
    {
      spec with
      events =
        Array.to_list
          (Array.map
             (fun (w, _) -> Scenario.Deny_export (v, w))
             (Topology.neighbors topo v));
    }

let pin_scenarios topo =
  let st = Random.State.make [| 2008 |] in
  let link = Scenario.single_link st topo in
  let link_recover = undone (Scenario.single_link st topo) in
  let node_recover = undone (Scenario.node_failure st topo) in
  let export_allow = undone (Scenario.policy_withdraw st topo) in
  let churn = Scenario.churn ~rate:0.05 ~duration:600. st topo in
  let fast_churn = Scenario.churn ~rate:1. ~duration:30. st topo in
  let transit = transit_export st topo (Scenario.single_link st topo) in
  [
    ("link", link);
    ("link-recover", link_recover);
    ("node-recover", node_recover);
    ("export-allow", export_allow);
    ("churn", churn);
    ("fast-churn", fast_churn);
    ("transit-export", transit);
  ]

let canonical (r : Runner.result) =
  let c = r.counters in
  Printf.sprintf
    "transients=%d broken=%d convergence=%.17g recovery=%.17g messages=%d+%d \
     checkpoints=%d announcements=%d withdrawals=%d mrai_deferrals=%d \
     lost_to_resets=%d verdict=%s"
    r.transient_count r.broken_after r.convergence_delay r.recovery_delay
    r.messages_initial r.messages_event r.checkpoints c.announcements
    c.withdrawals c.mrai_deferrals c.lost_to_resets
    (Sim.verdict_name r.verdict)

let trace_digest events =
  let buf = Buffer.create 65536 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Trace.to_json e);
      Buffer.add_char buf '\n')
    (Trace.normalize
       (List.map (fun (e : Trace.event) -> { e with engine = "" }) events));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* (key, "<trace md5> <canonical result>") for every pinned run. *)
let pin_rows () =
  List.concat_map
    (fun n ->
      let topo = Topo_gen.generate (Topo_gen.default_params ~seed:3 ~n ()) in
      let scenarios = pin_scenarios topo in
      List.concat_map
        (fun detect_delay ->
          List.concat_map
            (fun (family, spec) ->
              List.map
                (fun (stem, engine) ->
                  let trace = Trace.memory () in
                  let r =
                    Runner.run_engine ~seed:11 ~detect_delay ~validate:`Off
                      ~trace engine topo spec
                  in
                  ( Printf.sprintf "n%d/d%g/%s/%s" n detect_delay family stem,
                    trace_digest (Trace.events trace) ^ " " ^ canonical r ))
                (pin_engines topo))
            scenarios)
        [ 0.; 1.5 ])
    [ 60; 120 ]

let pins_file = "engine_pins.txt"

let read_pins dir =
  In_channel.with_open_text (Filename.concat dir pins_file) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
           Some
             ( String.sub line 0 i,
               String.sub line (i + 1) (String.length line - i - 1) )
         | None -> None)

let test_engine_pins () =
  let rows = pin_rows () in
  match Sys.getenv_opt "ENGINE_PINS" with
  | Some dir ->
    Out_channel.with_open_text (Filename.concat dir pins_file) (fun oc ->
        List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) rows);
    Format.eprintf "regenerated %s under %s@." pins_file dir
  | None ->
    let dir =
      match
        List.find_opt Sys.file_exists
          [ "golden"; "test/golden"; "../test/golden" ]
      with
      | Some d -> d
      | None ->
        Alcotest.fail
          "test/golden not found (missing source_tree dep in test/dune?)"
    in
    let want = read_pins dir in
    Alcotest.(check (list string))
      "pinned runs" (List.map fst want) (List.map fst rows);
    let moved = List.filter (fun (k, v) -> List.assoc k want <> v) rows in
    List.iter
      (fun (k, v) ->
        Format.eprintf "moved %s@.  want %s@.  got  %s@." k
          (List.assoc k want) v)
      moved;
    Alcotest.(check (list string))
      "runs that differ from their pin (regenerate with \
       ENGINE_PINS=$PWD/test/golden after a deliberate change)"
      [] (List.map fst moved)

(* --- allocation guard ------------------------------------------------- *)

(* Minor words per initial-convergence event of each engine, on one fixed
   generated graph (n = 300, seed 1), in the profile [dune runtest] builds.
   Each bound is 1.25x the value measured once deliveries, MRAI flushes
   and no-op advertisements stopped allocating closures and options; the
   values before were 75.1 (BGP), 111.4 and 115.2 (R-BGP without and with
   RCI), 116.9 (STAMP) and 244.5 (hybrid, whose backup scoring dominates).
   A closure back on that path exceeds the bound. *)
let alloc_bounds =
  [
    ("BGP", 50.8);
    ("R-BGP without RCI", 67.1);
    ("R-BGP", 70.8);
    ("STAMP", 62.2);
    ("STAMP-BGP hybrid (full deployment)", 220.1);
  ]

let test_alloc_guard () =
  let topo = Topo_gen.generate (Topo_gen.default_params ~seed:1 ~n:300 ()) in
  let dest = Topology.num_vertices topo - 1 in
  List.iter
    (fun (name, engine) ->
      let sim = Sim.create ~seed:1 () in
      let inst = Engine.create engine sim topo ~dest Engine.default_config in
      let before = Gc.minor_words () in
      Engine.start inst;
      Sim.run sim;
      let per_event =
        (Gc.minor_words () -. before) /. float_of_int (Sim.events_processed sim)
      in
      let bound = 1.25 *. List.assoc name alloc_bounds in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per event <= %.1f" name
           per_event bound)
        true (per_event <= bound))
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
          Alcotest.test_case "recovery inside the detection window" `Quick
            test_recovery_inside_detection_window;
        ] );
      ( "engines",
        [ Alcotest.test_case "contents and bar order" `Quick test_engine_list ]
      );
      ( "pins",
        [
          Alcotest.test_case "traces and results, every engine" `Quick
            test_engine_pins;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per convergence event" `Quick
            test_alloc_guard;
        ] );
    ]
