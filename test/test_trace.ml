(* The tracing layer: sink mechanics, JSONL serialisation, normalisation
   and diffing, golden traces for the diamond_plus fixture, trace
   well-formedness invariants, and the differential guarantee the
   Timeline module advertises — its aggregates reconstructed from the
   trace alone equal the Runner's own measurements, for every engine in
   Runner.engines.

   Regenerate the golden traces after a deliberate protocol change with

     TRACE_GOLDEN=$PWD/test/golden dune exec test/test_trace.exe

   and say so in the commit. *)

let vtx = Test_support.vtx

(* --- fixtures ----------------------------------------------------------- *)

let golden_seed = 7

(* (filename stem, protocol) — stable stems, not display names *)
let golden_protocols =
  [
    ("bgp", Runner.Bgp);
    ("rbgp_norci", Runner.Rbgp_no_rci);
    ("rbgp", Runner.Rbgp);
    ("stamp", Runner.Stamp);
  ]

let golden_scenarios topo =
  let dest = vtx topo 3 and p = vtx topo 1 in
  [
    ("link_failure", [ Scenario.Fail_link (dest, p) ]);
    ( "fail_recover",
      [
        Scenario.Fail_link (dest, p);
        Scenario.At (40., Scenario.Recover_link (dest, p));
      ] );
  ]

let run_traced ?(seed = golden_seed) protocol topo events =
  let spec = { Scenario.dest = vtx topo 3; events; detect_delay = None } in
  let trace = Trace.memory () in
  let r = Runner.run ~seed ~validate:`Off ~trace protocol topo spec in
  (r, Trace.events trace)

(* --- sink mechanics ----------------------------------------------------- *)

let ev ?(vtime = 1.) ?(engine = "T") ?(loc = Trace.Net) kind sink =
  Trace.emit sink ~vtime ~engine ~loc kind

let test_null_sink () =
  Alcotest.(check bool) "disabled" false (Trace.enabled Trace.null);
  Alcotest.(check bool) "not readable" false (Trace.readable Trace.null);
  ev (Trace.Phase "x") Trace.null;
  Alcotest.(check int) "emit is a no-op" 0 (Trace.recorded Trace.null);
  Alcotest.(check (list reject)) "no events" [] (Trace.events Trace.null)

let test_memory_sink () =
  let s = Trace.memory () in
  Alcotest.(check bool) "enabled" true (Trace.enabled s);
  Alcotest.(check bool) "readable" true (Trace.readable s);
  ev ~vtime:0. (Trace.Phase "start") s;
  ev ~vtime:1. Trace.Deliver s;
  ev ~vtime:2. (Trace.Phase "final") s;
  let events = Trace.events s in
  Alcotest.(check int) "three events" 3 (List.length events);
  Alcotest.(check (list int)) "sequence numbers in emission order" [ 0; 1; 2 ]
    (List.map (fun e -> e.Trace.seq) events);
  Alcotest.(check int) "recorded" 3 (Trace.recorded s)

let test_stream_sink () =
  let path = Filename.temp_file "trace_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let s = Trace.stream oc in
      Alcotest.(check bool) "enabled" true (Trace.enabled s);
      Alcotest.(check bool) "not readable" false (Trace.readable s);
      ev ~vtime:0.5 ~loc:(Trace.Node 42) (Trace.Phase "start") s;
      ev ~vtime:1.5 ~loc:(Trace.Link (1, 2)) Trace.Deliver s;
      close_out oc;
      Alcotest.(check int) "recorded" 2 (Trace.recorded s);
      let ic = open_in path in
      let first = input_line ic in
      let second = input_line ic in
      let lines = [ first; second ] in
      close_in ic;
      let parsed = List.map Trace.of_json lines in
      Alcotest.(check (list (float 0.))) "streamed events parse back"
        [ 0.5; 1.5 ]
        (List.map (fun e -> e.Trace.vtime) parsed))

(* --- JSONL round-trip --------------------------------------------------- *)

(* one hand-built event per kind, with awkward strings and floats *)
let sample_events =
  let mk vtime seq engine loc kind = { Trace.vtime; seq; engine; loc; kind } in
  [
    mk 0. 0 "BGP" Trace.Net (Trace.Phase "start");
    mk 0.1 1 "Bgp_net"
      (Trace.Link (64500, 3356))
      (Trace.Enqueue { msg = Trace.Announce; deliver_at = 0.11750538328 });
    mk 0.2 2 "Bgp_net" (Trace.Link (3356, 64500)) Trace.Deliver;
    mk 0.3 3 "Rbgp_net" (Trace.Link (1, 2)) Trace.Drop;
    mk 0.4 4 "Stamp_net" (Trace.Node 7)
      (Trace.Mrai_defer { until = 30.000000001; proc = 1 });
    mk 31. 5 "Stamp_net" (Trace.Node 7) (Trace.Mrai_flush { proc = 1 });
    mk 31.5 6 "Stamp_net" (Trace.Node 7)
      (Trace.Decision { old_next = Some 3356; new_next = None; cause = "blue:route-loss" });
    mk 31.5 7 "Stamp_net" (Trace.Node 7)
      (Trace.Decision { old_next = None; new_next = Some 1; cause = "route-learned" });
    mk 31.6 8 "Stamp_net" (Trace.Node 7)
      (Trace.Recolor { color = "red"; et_ok = false });
    mk 32. 9 "Bgp_net" (Trace.Link (10, 20)) Trace.Session_reset;
    mk 72. 10 "Bgp_net" (Trace.Link (10, 20)) Trace.Session_up;
    mk 46.746656553780902 11 "BGP" (Trace.Link (150, 37))
      (Trace.Scenario_event "link 150-37 \"quoted\" \\ backslash");
    mk 46.75 12 "BGP" (Trace.Node 99)
      (Trace.Status { status = "blackholed"; changed = true });
    mk 94.5 13 "BGP" Trace.Net (Trace.Phase "final");
    mk 1e-9 14 "E" Trace.Net (Trace.Phase "tiny float");
    mk 86400. 15 "E" Trace.Net (Trace.Phase "big float");
  ]

let test_json_roundtrip_samples () =
  List.iter
    (fun e ->
      let j = Trace.to_json e in
      Alcotest.(check bool)
        (Printf.sprintf "round-trips: %s" j)
        true
        (Trace.equal_event e (Trace.of_json j));
      (* pp must render every kind without raising *)
      ignore (Format.asprintf "%a" Trace.pp e))
    sample_events

let test_json_roundtrip_real_run () =
  let topo = Test_support.diamond_plus () in
  List.iter
    (fun (_, protocol) ->
      let _, events =
        run_traced protocol topo
          (List.assoc "fail_recover" (golden_scenarios topo))
      in
      List.iter
        (fun e ->
          if not (Trace.equal_event e (Trace.of_json (Trace.to_json e))) then
            Alcotest.failf "event does not round-trip: %s" (Trace.to_json e))
        events)
    golden_protocols

let test_json_rejects_garbage () =
  List.iter
    (fun bad ->
      match Trace.of_json bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Invalid_argument _ -> ())
    [
      "";
      "{";
      "not json at all";
      "{\"t\":1}";
      "{\"t\":1,\"seq\":0,\"engine\":\"E\",\"loc\":\"net\",\"kind\":\"nope\"}";
      "{\"t\":1,\"seq\":0,\"engine\":\"E\",\"loc\":\"mars\",\"kind\":\"phase\",\"name\":\"x\"}";
      "[1,2,3]";
    ]

(* --- normalisation and diff --------------------------------------------- *)

let test_normalize () =
  let mk seq vtime asn =
    {
      Trace.vtime;
      seq;
      engine = "E";
      loc = Trace.Node asn;
      kind = Trace.Deliver;
    }
  in
  (* same vtime, emission order 5-then-3: normalisation sorts the tie by
     serialised form and zeroes seq *)
  let a = [ mk 0 1. 5; mk 1 1. 3; mk 2 2. 9 ] in
  let b = [ mk 0 1. 3; mk 1 1. 5; mk 2 2. 9 ] in
  let na = Trace.normalize a and nb = Trace.normalize b in
  Alcotest.(check bool) "tie order is canonical" true
    (List.for_all2 Trace.equal_event na nb);
  Alcotest.(check (list int)) "seq zeroed" [ 0; 0; 0 ]
    (List.map (fun e -> e.Trace.seq) na);
  Alcotest.(check bool) "idempotent" true
    (List.for_all2 Trace.equal_event na (Trace.normalize na));
  Alcotest.(check (list int)) "cross-time order untouched" [ 1; 1; 2 ]
    (List.map (fun e -> int_of_float e.Trace.vtime) na)

let test_diff () =
  let mk vtime asn =
    {
      Trace.vtime;
      seq = 0;
      engine = "E";
      loc = Trace.Node asn;
      kind = Trace.Deliver;
    }
  in
  let a = [ mk 1. 1; mk 2. 2; mk 3. 3 ] in
  Alcotest.(check int) "identical traces: no diff" 0
    (List.length (Trace.diff a a));
  let b = [ mk 1. 1; mk 2. 99; mk 3. 3 ] in
  (match Trace.diff a b with
  | [ (1, Some l, Some r) ] ->
    Alcotest.(check bool) "left is the original" true
      (Trace.equal_event l (mk 2. 2));
    Alcotest.(check bool) "right is the mutation" true
      (Trace.equal_event r (mk 2. 99))
  | ds -> Alcotest.failf "expected one diff at index 1, got %d" (List.length ds));
  match Trace.diff a [ mk 1. 1 ] with
  | [ (1, Some _, None); (2, Some _, None) ] -> ()
  | ds ->
    Alcotest.failf "expected two one-sided diffs, got %d" (List.length ds)

(* --- null-sink bit-identity --------------------------------------------- *)

(* the whole result record minus the timeline, which only a readable sink
   produces by design *)
let strip (r : Runner.result) = { r with Runner.timeline = None }

let test_null_sink_bit_identity () =
  let topo = Test_support.diamond_plus () in
  let scenarios = golden_scenarios topo in
  List.iter
    (fun (engine_name, engine) ->
      List.iter
        (fun (scenario_name, events) ->
          let label = engine_name ^ "/" ^ scenario_name in
          let spec =
            { Scenario.dest = vtx topo 3; events; detect_delay = None }
          in
          let run ?trace () =
            Runner.run_engine ~seed:golden_seed ~validate:`Off ?trace engine
              topo spec
          in
          let untraced = run () in
          let nulled = run ~trace:Trace.null () in
          let memory = run ~trace:(Trace.memory ()) () in
          Alcotest.(check bool) (label ^ ": null sink bit-identical") true
            (strip untraced = strip nulled);
          Alcotest.(check bool) (label ^ ": memory sink bit-identical") true
            (strip untraced = strip memory);
          Alcotest.(check bool) (label ^ ": untraced runs carry no timeline")
            true
            (untraced.Runner.timeline = None && nulled.Runner.timeline = None);
          Alcotest.(check bool) (label ^ ": memory runs carry a timeline") true
            (memory.Runner.timeline <> None))
        scenarios)
    Runner.engines

(* --- well-formedness invariants ----------------------------------------- *)

(* Check every structural invariant of one run's trace; returns unit,
   failing the surrounding alcotest/qcheck test on violation. *)
let check_well_formed ~label (r : Runner.result) events =
  (* vtimes never go backwards: emissions happen at Sim.now *)
  ignore
    (List.fold_left
       (fun prev e ->
         if e.Trace.vtime < prev then
           Alcotest.failf "%s: vtime went backwards (%g after %g)" label
             e.Trace.vtime prev;
         e.Trace.vtime)
       neg_infinity events);
  (* sequence numbers are the emission index *)
  List.iteri
    (fun i e ->
      if e.Trace.seq <> i then
        Alcotest.failf "%s: seq %d at position %d" label e.Trace.seq i)
    events;
  (* per directed link, deliveries/drops happen FIFO at the instants the
     matching enqueues promised *)
  let per_link = Hashtbl.create 64 in
  let push key v =
    let q =
      match Hashtbl.find_opt per_link key with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace per_link key q;
        q
    in
    Queue.push v q
  in
  let in_flight = ref 0 in
  List.iter
    (fun e ->
      match (e.Trace.loc, e.Trace.kind) with
      | Trace.Link (u, v), Trace.Enqueue { deliver_at; _ } ->
        incr in_flight;
        push (u, v) deliver_at
      | Trace.Link (u, v), (Trace.Deliver | Trace.Drop) -> begin
        decr in_flight;
        match Hashtbl.find_opt per_link (u, v) with
        | None ->
          Alcotest.failf "%s: delivery on %d->%d without any enqueue" label u v
        | Some q ->
          if Queue.is_empty q then
            Alcotest.failf "%s: more deliveries than enqueues on %d->%d" label
              u v
          else
            let promised = Queue.pop q in
            if not (Float.equal promised e.Trace.vtime) then
              Alcotest.failf
                "%s: delivery on %d->%d at %.17g, enqueue promised %.17g"
                label u v e.Trace.vtime promised
      end
      | _ -> ())
    events;
  (* a converged run leaves nothing in flight *)
  if Sim.equal_verdict r.Runner.verdict Sim.Converged && !in_flight <> 0 then
    Alcotest.failf "%s: %d messages still in flight at convergence" label
      !in_flight;
  (* counters are exactly the trace's event counts *)
  let count f = List.length (List.filter f events) in
  let c = r.Runner.counters in
  let pairs =
    [
      ( "announcements",
        c.Counters.announcements,
        count (fun e ->
            match e.Trace.kind with
            | Trace.Enqueue { msg = Trace.Announce; _ } -> true
            | _ -> false) );
      ( "withdrawals",
        c.Counters.withdrawals,
        count (fun e ->
            match e.Trace.kind with
            | Trace.Enqueue { msg = Trace.Withdraw; _ } -> true
            | _ -> false) );
      ( "mrai_deferrals",
        c.Counters.mrai_deferrals,
        count (fun e ->
            match e.Trace.kind with Trace.Mrai_defer _ -> true | _ -> false)
      );
      ( "lost_to_resets",
        c.Counters.lost_to_resets,
        count (fun e -> e.Trace.kind = Trace.Drop) );
    ]
  in
  List.iter
    (fun (what, counter, traced) ->
      if counter <> traced then
        Alcotest.failf "%s: %s counter %d but %d traced events" label what
          counter traced)
    pairs

let test_well_formed_diamond () =
  let topo = Test_support.diamond_plus () in
  List.iter
    (fun (stem, protocol) ->
      List.iter
        (fun (scenario_name, events) ->
          let r, trace_events = run_traced protocol topo events in
          check_well_formed
            ~label:(stem ^ "/" ^ scenario_name)
            r trace_events)
        (golden_scenarios topo))
    golden_protocols

(* --- timeline = runner, differential ------------------------------------ *)

let check_timeline_matches ~label (r : Runner.result) =
  match (r.Runner.verdict, r.Runner.timeline) with
  | Sim.Converged, Some tl ->
    let check_int what a b =
      if a <> b then Alcotest.failf "%s: %s: timeline %d, runner %d" label what a b
    in
    let check_float what a b =
      if not (Float.equal a b) then
        Alcotest.failf "%s: %s: timeline %.17g, runner %.17g" label what a b
    in
    check_int "transient_count" tl.Timeline.transient_count
      r.Runner.transient_count;
    check_int "broken_after" tl.Timeline.broken_after r.Runner.broken_after;
    check_float "convergence_delay" tl.Timeline.convergence_delay
      r.Runner.convergence_delay;
    check_float "recovery_delay" tl.Timeline.recovery_delay
      r.Runner.recovery_delay;
    let c = r.Runner.counters in
    check_int "announcements" tl.Timeline.enqueued_announcements
      c.Counters.announcements;
    check_int "withdrawals" tl.Timeline.enqueued_withdrawals
      c.Counters.withdrawals;
    check_int "mrai_deferrals" tl.Timeline.mrai_deferrals
      c.Counters.mrai_deferrals;
    check_int "drops" tl.Timeline.drops c.Counters.lost_to_resets;
    (* windows are consistent among themselves *)
    List.iter
      (fun (w : Timeline.window) ->
        if w.Timeline.until_t < w.Timeline.from_t then
          Alcotest.failf "%s: window for AS %d ends before it starts" label
            w.Timeline.asn)
      tl.Timeline.windows;
    if
      not
        (List.for_all
           (fun (w : Timeline.window) -> w.Timeline.status = "looped")
           tl.Timeline.loop_windows)
    then Alcotest.failf "%s: loop_windows contains a non-loop" label
  | _ -> () (* budget-killed runs carry partial aggregates; out of scope *)

let test_differential_diamond () =
  let topo = Test_support.diamond_plus () in
  List.iter
    (fun (engine_name, engine) ->
      List.iter
        (fun (scenario_name, events) ->
          let spec =
            { Scenario.dest = vtx topo 3; events; detect_delay = None }
          in
          let r =
            Runner.run_engine ~seed:golden_seed ~validate:`Off
              ~trace:(Trace.memory ()) engine topo spec
          in
          Alcotest.(check string)
            (engine_name ^ "/" ^ scenario_name ^ " converged")
            "converged"
            (Sim.verdict_name r.Runner.verdict);
          check_timeline_matches ~label:(engine_name ^ "/" ^ scenario_name) r)
        (golden_scenarios topo))
    Runner.engines

(* Differential property over generated topologies: for every engine in
   Runner.engines on a random single-link instance, the trace
   must be well-formed and the reconstructed timeline must equal the
   Runner's aggregates. *)
let differential_prop (params : Topo_gen.params) =
  let topo = Topo_gen.generate params in
  let st = Random.State.make [| params.Topo_gen.seed |] in
  let spec = Scenario.single_link st topo in
  List.iter
    (fun (engine_name, engine) ->
      let sink = Trace.memory () in
      let r =
        Runner.run_engine ~seed:params.Topo_gen.seed ~validate:`Off ~trace:sink
          engine topo spec
      in
      check_well_formed ~label:engine_name r (Trace.events sink);
      check_timeline_matches ~label:engine_name r)
    Runner.engines;
  true

let test_differential_generated =
  Test_support.qtest ~count:15 "timeline = runner on generated topologies"
    Test_support.gen_params Test_support.print_params differential_prop

(* --- timeline semantics on a known instance ------------------------------ *)

let test_timeline_shape () =
  let topo = Test_support.diamond_plus () in
  let r, events =
    run_traced Runner.Bgp topo
      (List.assoc "link_failure" (golden_scenarios topo))
  in
  let tl = Option.get r.Runner.timeline in
  Alcotest.(check string) "engine id" "BGP" tl.Timeline.engine;
  Alcotest.(check bool) "event time after initial convergence" true
    (tl.Timeline.event_time > 0.);
  Alcotest.(check bool) "converged after the event" true
    (tl.Timeline.converged_at >= tl.Timeline.event_time);
  Alcotest.(check int) "no AS outside a window before the event" 0
    (Timeline.outage_at tl (tl.Timeline.event_time -. 1e-9));
  Alcotest.(check (float 1e-9)) "dropped AS-seconds = sum of windows"
    (List.fold_left
       (fun acc (w : Timeline.window) ->
         acc +. (w.Timeline.until_t -. w.Timeline.from_t))
       0. tl.Timeline.windows)
    tl.Timeline.dropped_as_seconds;
  (* reconstruction is a pure function of the event list *)
  let tl' = Timeline.of_events events in
  Alcotest.(check bool) "of_events is deterministic" true (tl = tl');
  (* to_json / pp do not raise and carry the headline aggregates *)
  let j = Timeline.to_json tl in
  Alcotest.(check bool) "json mentions transient_count" true
    (Astring.String.is_infix ~affix:"\"transient_count\"" j);
  ignore (Format.asprintf "%a" Timeline.pp tl)

let test_timeline_json_escaping () =
  (* the timeline's strings are escaped exactly as the trace's own JSONL
     escapes them: control bytes as \u escapes, UTF-8 copied through *)
  let engine = "B\001GP\195\169" in
  let at vtime loc kind = { Trace.vtime; seq = 0; engine; loc; kind } in
  let injected = at 0. Trace.Net (Trace.Phase "events-injected") in
  let tl =
    Timeline.of_events
      [
        injected;
        at 1. (Trace.Node 7)
          (Trace.Status { status = "looped"; changed = true });
        at 2. Trace.Net (Trace.Phase "final");
      ]
  in
  let field = {|"engine":"B\u0001GP|} ^ "\195\169\"" in
  let j = Timeline.to_json tl in
  Alcotest.(check bool) "trace line has the field" true
    (Astring.String.is_infix ~affix:field (Trace.to_json injected));
  Alcotest.(check bool) "timeline writes the same field" true
    (Astring.String.is_infix ~affix:field j);
  Alcotest.(check bool) "window status written" true
    (Astring.String.is_infix ~affix:{|"status":"looped"|} j);
  (* window statuses are decoded, so a name no status has is refused *)
  let bad = Trace.Status { status = "loop\"ed"; changed = true } in
  Alcotest.check_raises "unknown status"
    (Invalid_argument {|Fwd_walk.status_of_string: "loop\"ed"|})
    (fun () -> ignore (Timeline.of_events [ at 1. (Trace.Node 7) bad ]))

(* --- golden traces ------------------------------------------------------- *)

let golden_dir () =
  List.find_opt Sys.file_exists [ "golden"; "test/golden"; "../test/golden" ]

let golden_name stem scenario = Printf.sprintf "%s_%s.jsonl" stem scenario

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let regenerate dir =
  let topo = Test_support.diamond_plus () in
  List.iter
    (fun (stem, protocol) ->
      List.iter
        (fun (scenario_name, events) ->
          let _, trace_events = run_traced protocol topo events in
          let oc =
            open_out (Filename.concat dir (golden_name stem scenario_name))
          in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              List.iter
                (fun e ->
                  output_string oc (Trace.to_json e);
                  output_char oc '\n')
                (Trace.normalize trace_events)))
        (golden_scenarios topo))
    golden_protocols

let test_golden_traces () =
  match Sys.getenv_opt "TRACE_GOLDEN" with
  | Some dir ->
    regenerate dir;
    Format.eprintf "regenerated golden traces under %s@." dir
  | None ->
    let dir =
      match golden_dir () with
      | Some d -> d
      | None ->
        Alcotest.fail
          "test/golden not found (missing source_tree dep in test/dune?)"
    in
    let topo = Test_support.diamond_plus () in
    List.iter
      (fun (stem, protocol) ->
        List.iter
          (fun (scenario_name, events) ->
            let name = golden_name stem scenario_name in
            let _, trace_events = run_traced protocol topo events in
            let got = Trace.normalize trace_events in
            let want =
              List.map Trace.of_json (read_lines (Filename.concat dir name))
            in
            match Trace.diff want got with
            | [] -> ()
            | (i, l, r) :: _ as ds ->
              let side = function
                | None -> "(absent)"
                | Some e -> Trace.to_json e
              in
              Alcotest.failf
                "%s: %d differences vs golden; first at #%d:\n  golden: %s\n\
                \  got:    %s\n\
                 (regenerate with TRACE_GOLDEN=$PWD/test/golden after a \
                 deliberate change)"
                name (List.length ds) i (side l) (side r))
          (golden_scenarios topo))
      golden_protocols

let () =
  Alcotest.run "trace"
    [
      ( "sinks",
        [
          Alcotest.test_case "null" `Quick test_null_sink;
          Alcotest.test_case "memory" `Quick test_memory_sink;
          Alcotest.test_case "stream" `Quick test_stream_sink;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "round-trip, every kind" `Quick
            test_json_roundtrip_samples;
          Alcotest.test_case "round-trip, real runs" `Quick
            test_json_roundtrip_real_run;
          Alcotest.test_case "garbage rejected" `Quick test_json_rejects_garbage;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "diff" `Quick test_diff;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "null sink bit-identity, all engines" `Quick
            test_null_sink_bit_identity;
        ] );
      ( "well-formed",
        [
          Alcotest.test_case "diamond_plus, all protocols" `Quick
            test_well_formed_diamond;
        ] );
      ( "differential",
        [
          Alcotest.test_case "timeline = runner on diamond_plus" `Quick
            test_differential_diamond;
          test_differential_generated;
          Alcotest.test_case "timeline shape" `Quick test_timeline_shape;
          Alcotest.test_case "timeline JSON escaping" `Quick
            test_timeline_json_escaping;
        ] );
      ("golden", [ Alcotest.test_case "diamond_plus traces" `Quick test_golden_traces ]);
    ]
