(* The incremental forwarding-plane probe and the int-coded walker.

   1. Probe equivalence: for every engine in Runner.engines, on generated
      topologies, under link failure, node fail -> recover, export
      deny -> allow and churn, each with instant and with delayed failure
      detection, the probe taken after every simulation event equals a
      walk from scratch ([Engine.fresh_walk]), and it is the previous
      probe's array exactly when no status moved. A missing dirty mark in
      an engine shows up here. Checking after every event is stricter than
      after every 20 ms monitor slice: a slice ends after its last event.
   2. Walker equivalence: [Fwd_walk.walk_all] agrees with a hop-limited,
      memo-free reference walker on random multi-state step tables, and
      [Fwd_walk.refresh] agrees with [walk_all] after random rewrites of
      such a table. *)

let engines = List.map snd Runner.engines

(* The engine list holds the five adapters, each exercised below. *)
let test_registry_covered () =
  Alcotest.(check (list string))
    "every engine is exercised"
    (List.map
       (fun (module E : Engine.S) -> E.name)
       [
         Bgp_engine.engine;
         Rbgp_engine.no_rci;
         Rbgp_engine.rci;
         Stamp_engine.default;
         Bgp_engine.hybrid_full;
       ])
    (List.map fst Runner.engines)

(* --- 1. cache equivalence -------------------------------------------- *)

(* Each scenario family, undone 40 s later where it has an inverse. *)
let scenarios st topo =
  let undo (spec : Scenario.spec) =
    let inverse = function
      | Scenario.Fail_node v -> [ Scenario.At (40., Scenario.Recover_node v) ]
      | Scenario.Deny_export (u, v) ->
        [ Scenario.At (40., Scenario.Allow_export (u, v)) ]
      | _ -> []
    in
    { spec with events = spec.events @ List.concat_map inverse spec.events }
  in
  (* a stub other than the destination: its own status is the only one
     its failure changes. It fails a second after the first probe, not
     before it. *)
  let stub_failure (spec : Scenario.spec) =
    let stubs =
      List.filter
        (fun v -> v <> spec.dest && Topology.is_stub topo v)
        (Array.to_list (Topology.vertices topo))
    in
    let v = List.nth stubs (Random.State.int st (List.length stubs)) in
    {
      spec with
      events =
        [
          Scenario.At (1., Scenario.Fail_node v);
          Scenario.At (41., Scenario.Recover_node v);
        ];
    }
  in
  let link = Scenario.single_link st topo in
  [
    ("single link", link);
    ("stub fail/recover", stub_failure link);
    ("node fail/recover", undo (Scenario.node_failure st topo));
    ("export deny/allow", undo (Scenario.policy_withdraw st topo));
    ("churn", Scenario.churn ~rate:0.2 ~duration:60. st topo);
    (* events closer together than the detection delay: forwarding
       inputs then change while a failure is still undetected *)
    ("fast churn", Scenario.churn ~rate:2. ~duration:20. st topo);
  ]

let max_events = 2_000_000

type tally = { mutable checks : int; mutable hits : int }

let same_statuses a b =
  Array.length a = Array.length b && Array.for_all2 Fwd_walk.equal_status a b

(* Whether [got], probed after [prev] (whose contents were [prev_copy]),
   equals [fresh], left [prev] as it was, and is [prev] itself exactly
   when no status moved. *)
let probe_ok ~prev ~prev_copy ~got ~fresh =
  same_statuses got fresh
  && same_statuses prev prev_copy
  && (got == prev) = (prev <> [||] && same_statuses got prev_copy)

(* Converge, inject, then step the simulation one event at a time. After
   each event the engine's probe must pass [probe_ok] against a walk from
   scratch. Returns the time of the first failure, if any. *)
let check_run tally engine topo (spec : Scenario.spec) ~detect_delay ~seed =
  let sim = Sim.create ~seed () in
  let config = { Engine.default_config with seed; detect_delay } in
  let inst = Engine.create engine sim topo ~dest:spec.dest config in
  Engine.start inst;
  ignore (Sim.run_guarded ~max_events sim);
  List.iter (Runner.inject ~trace:Trace.null topo inst sim) spec.events;
  let prev = ref [||] and prev_copy = ref [||] in
  let mismatch = ref None in
  let check () =
    let got = Engine.probe inst in
    if got == !prev then tally.hits <- tally.hits + 1;
    let fresh = Engine.fresh_walk inst in
    tally.checks <- tally.checks + 1;
    if
      !mismatch = None
      && not (probe_ok ~prev:!prev ~prev_copy:!prev_copy ~got ~fresh)
    then mismatch := Some (Sim.now sim);
    prev := got;
    prev_copy := Array.copy got
  in
  check ();
  while Sim.pending sim > 0 && Sim.events_processed sim < max_events do
    ignore (Sim.step sim);
    check ()
  done;
  !mismatch

let gen_case =
  QCheck2.Gen.(pair (int_range 30 90) (int_range 0 1_000_000))

let prop_cache_equivalence =
  let tally = { checks = 0; hits = 0 } in
  Test_support.qtest ~count:4
    "cached probe = fresh walk, every engine, scenario and detect delay"
    gen_case
    (fun (n, seed) -> Printf.sprintf "{n=%d; seed=%d}" n seed)
    (fun (n, seed) ->
      let topo = Topo_gen.generate (Topo_gen.default_params ~seed ~n ()) in
      let st = Random.State.make [| seed |] in
      List.for_all
        (fun (label, spec) ->
          List.for_all
            (fun detect_delay ->
              List.for_all
                (fun engine ->
                  match
                    check_run tally engine topo spec ~detect_delay ~seed
                  with
                  | None -> true
                  | Some at ->
                    QCheck2.Test.fail_reportf
                      "%s, %s, detect_delay %g: probe differs from a walk \
                       from scratch, or kept or replaced its array wrongly, at \
                       t=%g"
                      (let (module E : Engine.S) = engine in
                       E.name)
                      label detect_delay at)
                engines)
            [ 0.; 1.5 ])
        (scenarios st topo)
      && (* some probes keep their array, and not every one *)
      tally.hits > 0 && tally.hits < tally.checks)

(* --- 2. walker equivalence ------------------------------------------- *)

(* A step table over [n] vertices and [num_states] states: [start.(v)] is
   the start state, [step.(v * num_states + s)] the step code. *)
type table = {
  n : int;
  num_states : int;
  dest : int;
  start : int array;
  step : int array;
}

let gen_table ~max_n =
  QCheck2.Gen.(
    let* n = int_range 1 max_n in
    let* num_states = int_range 1 4 in
    let* dest = int_range 0 (n - 1) in
    let* start = array_size (return n) (int_range 0 (num_states - 1)) in
    let code =
      frequency
        [
          (1, return Fwd_walk.drop);
          (1, return Fwd_walk.deliver);
          (6, int_range 0 ((n * num_states) - 1));
        ]
    in
    let* step = array_size (return (n * num_states)) code in
    return { n; num_states; dest; start; step })

let print_table t =
  Printf.sprintf "{n=%d; states=%d; dest=%d; start=[%s]; step=[%s]}" t.n
    t.num_states t.dest
    (String.concat ";" (Array.to_list (Array.map string_of_int t.start)))
    (String.concat ";" (Array.to_list (Array.map string_of_int t.step)))

(* Follow one packet without memoization. A packet that has not resolved
   after visiting as many (vertex, state) pairs as exist must have
   revisited one: it loops. *)
let reference t v =
  let limit = t.n * t.num_states in
  let rec go v s hops =
    if v = t.dest then Fwd_walk.Delivered
    else if hops > limit then Fwd_walk.Looped
    else
      let code = t.step.((v * t.num_states) + s) in
      if code = Fwd_walk.drop then Fwd_walk.Blackholed
      else if code = Fwd_walk.deliver then Fwd_walk.Delivered
      else go (code / t.num_states) (code mod t.num_states) (hops + 1)
  in
  go v t.start.(v) 0

let prop_walk_matches_reference =
  Test_support.qtest ~count:500 "walk_all = hop-limited reference walker"
    (gen_table ~max_n:12) print_table (fun t ->
      let got =
        Fwd_walk.walk_all ~n:t.n ~dest:t.dest ~num_states:t.num_states
          ~start:(fun v -> t.start.(v))
          ~step:(fun v s -> t.step.((v * t.num_states) + s))
      in
      Array.for_all Fun.id
        (Array.init t.n (fun v -> Fwd_walk.equal_status got.(v) (reference t v))))

(* A rewrite of the table: one cell's step code, or one start state. *)
type rewrite = Cell of int * int | Start of int * int

let gen_rounds t =
  QCheck2.Gen.(
    let cells = t.n * t.num_states in
    let rewrite =
      oneof
        [
          map2
            (fun x code -> Cell (x, code))
            (int_range 0 (cells - 1))
            (frequency
               [
                 (1, return Fwd_walk.drop);
                 (1, return Fwd_walk.deliver);
                 (6, int_range 0 (cells - 1));
               ]);
          map2
            (fun v s -> Start (v, s))
            (int_range 0 (t.n - 1))
            (int_range 0 (t.num_states - 1));
        ]
    in
    list_size (int_range 1 12) (list_size (int_range 0 3) rewrite))

let print_rounds rounds =
  let rewrite = function
    | Cell (x, code) -> Printf.sprintf "cell %d <- %d" x code
    | Start (v, s) -> Printf.sprintf "start %d <- %d" v s
  in
  String.concat " | "
    (List.map (fun r -> String.concat ", " (List.map rewrite r)) rounds)

(* Rewrite a random table round by round, marking each rewritten vertex;
   after every round the incremental walker must pass [probe_ok] against
   [walk_all] on the current table. *)
let prop_refresh_matches_walk_all =
  Test_support.qtest ~count:500
    "refresh = walk_all after random rewrites, array kept iff unchanged"
    QCheck2.Gen.(
      let* t = gen_table ~max_n:40 in
      let* rounds = gen_rounds t in
      return (t, rounds))
    (fun (t, rounds) -> print_table t ^ " rounds: " ^ print_rounds rounds)
    (fun (t, rounds) ->
      let start = Array.copy t.start and step = Array.copy t.step in
      let k = t.num_states in
      let walker_args f =
        f ~n:t.n ~dest:t.dest ~num_states:k
          ~start:(fun v -> start.(v))
          ~step:(fun v s -> step.((v * k) + s))
      in
      let w = walker_args Fwd_walk.create in
      let prev = ref (Fwd_walk.refresh w) in
      let prev_copy = ref (Array.copy !prev) in
      List.for_all
        (fun round ->
          List.iter
            (function
              | Cell (x, code) ->
                step.(x) <- code;
                Fwd_walk.mark w (x / k)
              | Start (v, s) ->
                start.(v) <- s;
                Fwd_walk.mark w v)
            round;
          let got = Fwd_walk.refresh w in
          let fresh = walker_args Fwd_walk.walk_all in
          let ok = probe_ok ~prev:!prev ~prev_copy:!prev_copy ~got ~fresh in
          prev := got;
          prev_copy := Array.copy got;
          ok)
        rounds)

let test_bad_codes () =
  let walk ~start ~step =
    ignore (Fwd_walk.walk_all ~n:3 ~dest:2 ~num_states:2 ~start ~step)
  in
  Alcotest.check_raises "start state out of range"
    (Invalid_argument "Fwd_walk.walk_all: bad start state") (fun () ->
      walk ~start:(fun _ -> 2) ~step:(fun _ _ -> Fwd_walk.drop));
  Alcotest.check_raises "forward past the last vertex"
    (Invalid_argument "Fwd_walk.walk_all: bad step code") (fun () ->
      walk ~start:(fun _ -> 0) ~step:(fun _ _ -> 6));
  Alcotest.check_raises "unknown negative code"
    (Invalid_argument "Fwd_walk.walk_all: bad step code") (fun () ->
      walk ~start:(fun _ -> 0) ~step:(fun _ _ -> -3))

let () =
  Alcotest.run "probe_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "registry covered" `Quick test_registry_covered;
          prop_cache_equivalence;
        ] );
      ( "walker",
        [
          prop_walk_matches_reference;
          prop_refresh_matches_walk_all;
          Alcotest.test_case "bad codes rejected" `Quick test_bad_codes;
        ] );
    ]
