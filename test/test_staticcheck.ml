(* Tests for the static safety analyzer: each crafted bad topology
   triggers exactly its diagnostic id, every generated topology passes
   [`Strict], the Runner threads the convergence certificate, and the
   report/scenario serialisations round-trip. *)

let rel lines = Topo_io.parse_relationships (String.concat "\n" lines)

(* the shared fixtures, smallest instance of each defect *)
let diamond () =
  rel [ "10|20|0"; "10|1|-1"; "20|2|-1"; "1|3|-1"; "2|3|-1" ]

let provider_cycle () = rel [ "10|1|-1"; "1|2|-1"; "2|3|-1"; "3|1|-1" ]

let sibling_wheel () =
  rel [ "1|2|2"; "3|4|2"; "1|3|-1"; "4|2|-1"; "10|1|-1"; "10|4|-1" ]

let disconnected_tier1 () = rel [ "10|1|-1"; "20|2|-1"; "1|3|-1"; "2|3|-1" ]
let valley_leak () = rel [ "10|1|-1"; "10|2|-1"; "1|3|0" ]

let non_disjoint () =
  rel [ "10|1|-1"; "1|2|-1"; "1|3|-1"; "2|4|-1"; "3|4|-1"; "10|5|-1" ]

let error_ids report =
  Staticcheck.errors report
  |> List.map (fun d -> d.Diagnostic.check)
  |> List.sort_uniq String.compare

let warning_ids report =
  Staticcheck.warnings report
  |> List.map (fun d -> d.Diagnostic.check)
  |> List.sort_uniq String.compare

let check_errors name topo expected =
  let report = Staticcheck.analyze topo in
  Alcotest.(check (list string)) name expected (error_ids report)

(* --- one bad topology per check, firing exactly its id ----------------- *)

let test_good_topology_certified () =
  let report = Staticcheck.analyze (diamond ()) in
  Alcotest.(check (list string)) "no errors" [] (error_ids report);
  Alcotest.(check bool) "certified" true
    (report.Staticcheck.certificate = Staticcheck.Convergence_certified)

let test_provider_cycle () =
  check_errors "only topo.wellformed" (provider_cycle ()) [ "topo.wellformed" ]

let test_sibling_wheel () =
  (* the provider DAG alone is acyclic: the transit cycle closes through
     the two sibling groups, so only the dispute-wheel check can see it *)
  let topo = sibling_wheel () in
  Alcotest.(check bool) "provider DAG acyclic" true
    (Topology.provider_dag_is_acyclic topo);
  check_errors "only policy.dispute-wheel" topo [ "policy.dispute-wheel" ];
  let report = Staticcheck.analyze topo in
  (match report.Staticcheck.certificate with
  | Staticcheck.Not_certified why ->
    Alcotest.(check bool) "blames the dispute wheel" true
      (Astring.String.is_infix ~affix:"policy.dispute-wheel" why)
  | Staticcheck.Convergence_certified ->
    Alcotest.fail "a dispute wheel must block certification")

let test_disconnected_tier1 () =
  check_errors "only topo.tier1-clique" (disconnected_tier1 ())
    [ "topo.tier1-clique" ]

let test_valley_leak () =
  (* AS 3 peers below the core and buys no transit: no valley-free path
     from the rest of the graph reaches it *)
  check_errors "only policy.valley-free" (valley_leak ())
    [ "policy.valley-free" ]

let test_non_disjoint_warns () =
  let report = Staticcheck.analyze (non_disjoint ()) in
  Alcotest.(check (list string)) "capability gap is not an error" []
    (error_ids report);
  Alcotest.(check bool) "stamp.disjoint warning present" true
    (List.mem "stamp.disjoint" (warning_ids report));
  (* the warning names the origin whose uphill cone has the cut vertex *)
  Alcotest.(check bool) "located at the Φ = 0 origin" true
    (List.exists
       (fun d ->
         d.Diagnostic.check = "stamp.disjoint"
         && d.Diagnostic.location = Diagnostic.At_as 4)
       (Staticcheck.warnings report))

let test_lock_coverage_warns () =
  let chain = rel [ "1|2|-1"; "2|3|-1" ] in
  let report = Staticcheck.analyze chain in
  Alcotest.(check (list string)) "no errors on a chain" [] (error_ids report);
  Alcotest.(check bool) "stamp.lock-coverage warning present" true
    (List.mem "stamp.lock-coverage" (warning_ids report))

let test_scenario_sanity () =
  let topo = diamond () in
  let v asn = Option.get (Topology.vertex_of_asn topo asn) in
  let spec =
    {
      Scenario.dest = v 3;
      events =
        [
          (* recovering a link that never failed *)
          Scenario.Recover_link (v 1, v 3);
          (* a link the topology does not contain *)
          Scenario.Fail_link (v 10, v 2);
          (* negative offset *)
          Scenario.At (-1.0, Scenario.Fail_node (v 3));
        ];
      detect_delay = Some (-2.0);
    }
  in
  let report = Staticcheck.analyze ~spec topo in
  let sanity_errors =
    List.filter
      (fun d -> d.Diagnostic.check = "scenario.sanity")
      (Staticcheck.errors report)
  in
  Alcotest.(check int) "all four problems reported" 4
    (List.length sanity_errors);
  (* a well-formed scenario on the same topology is silent *)
  let ok =
    {
      Scenario.dest = v 3;
      events = [ Scenario.Fail_link (v 3, v 1) ];
      detect_delay = None;
    }
  in
  Alcotest.(check (list string)) "clean scenario, clean report" []
    (error_ids (Staticcheck.analyze ~spec:ok topo))

let test_registry_complete () =
  (* one timing per built-in check, in report order: stamp_check --json
     prints [timings_ms] in this order *)
  let expected =
    [
      "topo.wellformed";
      "topo.tier1-clique";
      "policy.valley-free";
      "policy.dispute-wheel";
      "scenario.sanity";
      "stamp.disjoint";
      "stamp.lock-coverage";
    ]
  in
  let report = Staticcheck.analyze (diamond ()) in
  Alcotest.(check (list string)) "one timing per check, in order" expected
    (List.map fst report.Staticcheck.timings)

(* --- every generated topology passes `Strict --------------------------- *)

let prop_generated_topologies_pass_strict =
  Test_support.qtest ~count:100 "Topo_gen output passes `Strict"
    Test_support.gen_params Test_support.print_params (fun params ->
      let topo = Topo_gen.generate params in
      let report = Staticcheck.analyze topo in
      Staticcheck.enforce ~what:"generated topology" `Strict report;
      not (Staticcheck.has_errors report))

(* --- enforcement and Runner threading ---------------------------------- *)

let test_enforce_strict_raises () =
  let report = Staticcheck.analyze (provider_cycle ()) in
  (match Staticcheck.enforce ~what:"test input" `Strict report with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names what and the check" true
      (Astring.String.is_infix ~affix:"test input" msg
      && Astring.String.is_infix ~affix:"topo.wellformed" msg));
  (* `Warn and `Off never raise, whatever the report *)
  Staticcheck.enforce `Warn report;
  Staticcheck.enforce `Off report

let test_runner_threads_certificate () =
  let topo = Test_support.diamond () in
  let vtx = Test_support.vtx topo in
  let spec =
    {
      Scenario.dest = vtx 3;
      events = [ Scenario.Fail_link (vtx 3, vtx 1) ];
      detect_delay = None;
    }
  in
  (* default `Warn: diagnostics and certificate ride on the result *)
  let r = Runner.run ~seed:1 Runner.Bgp topo spec in
  Alcotest.(check bool) "certified" true
    (r.Runner.certificate = Some Staticcheck.Convergence_certified);
  (* `Off: the result carries no analysis output *)
  let r_off = Runner.run ~seed:1 ~validate:`Off Runner.Bgp topo spec in
  Alcotest.(check bool) "no certificate under `Off" true
    (r_off.Runner.certificate = None && r_off.Runner.diagnostics = []);
  (* identical simulation either way *)
  Alcotest.(check bool) "analysis never perturbs the run" true
    ({ r with Runner.diagnostics = []; certificate = None } = r_off)

let test_runner_strict_rejects_bad_topology () =
  let topo = provider_cycle () in
  let v asn = Option.get (Topology.vertex_of_asn topo asn) in
  let spec =
    { Scenario.dest = v 3; events = []; detect_delay = None }
  in
  match Runner.run ~validate:`Strict Runner.Bgp topo spec with
  | _ -> Alcotest.fail "expected Invalid_argument before simulation"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the failing check" true
      (Astring.String.is_infix ~affix:"topo.wellformed" msg)

let test_preflight_matches_inline () =
  let topo = Test_support.diamond () in
  let vtx = Test_support.vtx topo in
  let specs =
    List.map
      (fun (u, v) ->
        {
          Scenario.dest = vtx 3;
          events = [ Scenario.Fail_link (vtx u, vtx v) ];
          detect_delay = None;
        })
      [ (3, 1); (3, 2); (1, 10) ]
  in
  let strip (r : Staticcheck.report) =
    (* timings are wall-clock-ish (Sys.time), so compare the analysis *)
    (r.Staticcheck.diagnostics, r.Staticcheck.certificate)
  in
  let inline = List.map strip (Staticcheck.preflight topo specs) in
  let pooled =
    Test_support.with_pool ~jobs:4 (fun pool ->
        List.map strip (Staticcheck.preflight ~pool topo specs))
  in
  Alcotest.(check bool) "pool = inline" true (inline = pooled);
  Alcotest.(check int) "one report per spec" (List.length specs)
    (List.length inline)

(* --- serialisations ----------------------------------------------------- *)

let test_report_json_shape () =
  let good = Staticcheck.report_to_json (Staticcheck.analyze (diamond ())) in
  Alcotest.(check bool) "good topology certified in JSON" true
    (Astring.String.is_infix ~affix:"\"certified\":true" good);
  let bad =
    Staticcheck.report_to_json (Staticcheck.analyze (provider_cycle ()))
  in
  Alcotest.(check bool) "bad topology: not certified, check named" true
    (Astring.String.is_infix ~affix:"\"certified\":false" bad
    && Astring.String.is_infix ~affix:"topo.wellformed" bad)

(* the golden for `stamp_check --json` on the shipped example pair: the
   report prefix is a pure function of the input (only the trailing
   timings_ms object varies run to run, so it is cut before comparing) *)
let test_examples_json_golden () =
  let dir =
    match
      List.find_opt Sys.file_exists
        [ "../examples/data"; "examples/data"; "_build/default/examples/data" ]
    with
    | Some d -> d
    | None ->
      Alcotest.fail
        "examples/data not found (missing source_tree dep in test/dune?)"
  in
  let topo = Topo_io.load_relationships (Filename.concat dir "backbone.rel") in
  let spec = Scenario_io.load topo (Filename.concat dir "provider_failure.scn") in
  let json = Staticcheck.report_to_json (Staticcheck.analyze ~spec topo) in
  let prefix =
    match Astring.String.cut ~sep:{|,"timings_ms"|} json with
    | Some (p, _) -> p
    | None -> json
  in
  Alcotest.(check string) "shipped example analyzes clean, bit for bit"
    {|{"errors":0,"warnings":0,"certified":true,"diagnostics":[]|} prefix;
  (* every shipped bad input still trips the analyzer *)
  List.iter
    (fun (file, id) ->
      let topo =
        Topo_io.load_relationships (Filename.concat dir ("bad/" ^ file))
      in
      let report = Staticcheck.analyze topo in
      Alcotest.(check bool)
        (Printf.sprintf "%s trips %s" file id)
        true
        (List.exists
           (fun d -> d.Diagnostic.check = id)
           report.Staticcheck.diagnostics))
    [
      ("provider_cycle.rel", "topo.wellformed");
      ("sibling_wheel.rel", "policy.dispute-wheel");
      ("disconnected_tier1.rel", "topo.tier1-clique");
      ("valley_leak.rel", "policy.valley-free");
      ("non_disjoint.rel", "stamp.disjoint");
      ("unlocked_origin.rel", "stamp.lock-coverage");
    ]

let test_scenario_io_roundtrip () =
  let topo = diamond () in
  let v asn = Option.get (Topology.vertex_of_asn topo asn) in
  let spec =
    {
      Scenario.dest = v 3;
      events =
        [
          Scenario.Fail_link (v 3, v 1);
          Scenario.At (2.5, Scenario.Recover_link (v 3, v 1));
          Scenario.At (4.0, Scenario.At (1.0, Scenario.Fail_node (v 20)));
          Scenario.Deny_export (v 10, v 1);
        ];
      detect_delay = Some 0.5;
    }
  in
  let text = Scenario_io.to_string topo spec in
  Alcotest.(check bool) "round-trips" true (Scenario_io.parse topo text = spec)

let test_scenario_io_rejects () =
  let topo = diamond () in
  let reject name text =
    match Scenario_io.parse topo text with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  reject "missing dest" "fail_link 3 1\n";
  reject "duplicate dest" "dest 3\ndest 1\n";
  reject "unknown ASN" "dest 3\nfail_node 999\n";
  reject "malformed line" "dest 3\nfail_link 3\n"

let () =
  Alcotest.run "staticcheck"
    [
      ( "bad topologies",
        [
          Alcotest.test_case "good topology certified" `Quick
            test_good_topology_certified;
          Alcotest.test_case "provider cycle" `Quick test_provider_cycle;
          Alcotest.test_case "sibling dispute wheel" `Quick test_sibling_wheel;
          Alcotest.test_case "disconnected tier-1 core" `Quick
            test_disconnected_tier1;
          Alcotest.test_case "valley leak" `Quick test_valley_leak;
          Alcotest.test_case "Φ = 0 origin warns" `Quick
            test_non_disjoint_warns;
          Alcotest.test_case "no colouring point warns" `Quick
            test_lock_coverage_warns;
          Alcotest.test_case "scenario sanity" `Quick test_scenario_sanity;
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
        ] );
      ( "generated topologies",
        [ prop_generated_topologies_pass_strict ] );
      ( "enforcement",
        [
          Alcotest.test_case "`Strict raises, `Warn/`Off do not" `Quick
            test_enforce_strict_raises;
          Alcotest.test_case "Runner threads the certificate" `Quick
            test_runner_threads_certificate;
          Alcotest.test_case "Runner `Strict rejects bad input" `Quick
            test_runner_strict_rejects_bad_topology;
          Alcotest.test_case "preflight pool = inline" `Quick
            test_preflight_matches_inline;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
          Alcotest.test_case "examples/data golden" `Quick
            test_examples_json_golden;
          Alcotest.test_case "scenario round-trip" `Quick
            test_scenario_io_roundtrip;
          Alcotest.test_case "scenario parse errors" `Quick
            test_scenario_io_rejects;
        ] );
    ]
