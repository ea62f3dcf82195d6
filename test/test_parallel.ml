(* Tests for the deterministic domain pool: submission-order results,
   bit-identical parity with the sequential baseline, exception handling
   and edge cases. The source-hygiene checks that used to live here moved
   to test_hygiene.ml, generalised into a rule table. *)

let runner_result =
  Alcotest.testable
    (fun ppf (r : Runner.result) ->
      Format.fprintf ppf
        "{transient=%d; broken=%d; conv=%.17g; rec=%.17g; msgs=%d+%d; cp=%d; \
         %a; verdict=%s}"
        r.Runner.transient_count r.Runner.broken_after
        r.Runner.convergence_delay r.Runner.recovery_delay
        r.Runner.messages_initial r.Runner.messages_event r.Runner.checkpoints
        Counters.pp r.Runner.counters
        (Sim.verdict_name r.Runner.verdict))
    ( = )

(* --- pool vs sequential baseline over the shared fixtures -------------- *)

(* Every (fixture, protocol, seed) triple is one independent Runner.run
   job; the pool must reproduce the plain sequential List.map bit for
   bit, whatever the worker count. *)
let runner_jobs () =
  let diamond = Test_support.diamond () in
  let chain = Test_support.chain 6 in
  let fixtures =
    [
      (* multi-homed stub loses one provider link *)
      ( "diamond",
        diamond,
        {
          Scenario.dest = Test_support.vtx diamond 3;
          events =
            [
              Scenario.Fail_link
                (Test_support.vtx diamond 3, Test_support.vtx diamond 1);
            ];
          detect_delay = None;
        } );
      (* mid-chain provider link failure partitions the chain *)
      ( "chain",
        chain,
        {
          Scenario.dest = Test_support.vtx chain 4;
          events =
            [
              Scenario.Fail_link
                (Test_support.vtx chain 4, Test_support.vtx chain 3);
            ];
          detect_delay = None;
        } );
    ]
  in
  List.concat_map
    (fun (label, topo, spec) ->
      List.concat_map
        (fun protocol ->
          List.map
            (fun seed ->
              ( Printf.sprintf "%s/%s/seed=%d" label
                  (Runner.protocol_name protocol)
                  seed,
                fun () -> Runner.run ~seed protocol topo spec ))
            [ 0; 7 ])
        Runner.all_protocols)
    fixtures

let test_pool_matches_sequential () =
  let jobs = runner_jobs () in
  let sequential = List.map (fun (_, job) -> job ()) jobs in
  List.iter
    (fun workers ->
      let pooled =
        Test_support.with_pool ~jobs:workers (fun pool ->
            Parallel.map pool (fun (_, job) -> job ()) jobs)
      in
      List.iter2
        (fun (label, _) (expected, got) ->
          Alcotest.check runner_result
            (Printf.sprintf "jobs=%d %s" workers label)
            expected got)
        jobs
        (List.combine sequential pooled))
    [ 1; 4 ]

let test_pool_repeated_batches_stable () =
  (* same pool, same batch twice: identical results both times *)
  Test_support.with_pool ~jobs:4 (fun pool ->
      let jobs = runner_jobs () in
      let once = Parallel.map pool (fun (_, job) -> job ()) jobs in
      let twice = Parallel.map pool (fun (_, job) -> job ()) jobs in
      Alcotest.(check bool) "identical across batches" true (once = twice))

(* --- exception contract ------------------------------------------------ *)

let test_exception_reraised_rest_completes () =
  Test_support.with_pool ~jobs:4 (fun pool ->
      let n = 16 in
      let ran = Array.make n false in
      let thunks =
        Array.init n (fun i () ->
            ran.(i) <- true;
            if i = 3 then failwith "boom3";
            if i = 11 then failwith "boom11";
            i)
      in
      (match Parallel.run_batch pool thunks with
      | _ -> Alcotest.fail "expected the job's exception"
      | exception Failure msg ->
        Alcotest.(check string) "lowest-indexed failure wins" "boom3" msg);
      Alcotest.(check bool) "every job still ran" true (Array.for_all Fun.id ran);
      (* the pool survives a failing batch *)
      let r = Parallel.run_batch pool (Array.init 5 (fun i () -> i * i)) in
      Alcotest.(check (array int)) "pool usable afterwards"
        [| 0; 1; 4; 9; 16 |] r)

let test_reentrant_submit_rejected () =
  Test_support.with_pool ~jobs:2 (fun pool ->
      match
        Parallel.run_batch pool
          [| (fun () -> Parallel.run_batch pool [| (fun () -> 0) |]) |]
      with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_shutdown () =
  let pool = Parallel.create ~jobs:3 () in
  Parallel.shutdown pool;
  Parallel.shutdown pool;
  (* idempotent *)
  match Parallel.run_batch pool [| (fun () -> 0) |] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- edge cases -------------------------------------------------------- *)

let test_empty_batch () =
  Test_support.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (array int)) "empty" [||] (Parallel.run_batch pool [||]);
      Alcotest.(check (list int)) "empty map" [] (Parallel.map pool succ []))

let test_fewer_jobs_than_workers () =
  Test_support.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int)) "3 jobs on 8 workers" [ 1; 2; 3 ]
        (Parallel.map pool succ [ 0; 1; 2 ]))

let test_jobs_clamped () =
  Test_support.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "clamped to 1" 1 (Parallel.jobs pool);
      Alcotest.(check (list int)) "still works" [ 10 ]
        (Parallel.map pool (fun x -> x * 10) [ 1 ]))

let test_submission_order () =
  Test_support.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 (fun i -> i) in
      Alcotest.(check (list int)) "order preserved" xs
        (Parallel.map pool Fun.id xs))

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "pool = sequential (jobs 1 and 4)" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "repeated batches stable" `Quick
            test_pool_repeated_batches_stable;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "re-raised, batch completes" `Quick
            test_exception_reraised_rest_completes;
          Alcotest.test_case "re-entrant submit rejected" `Quick
            test_reentrant_submit_rejected;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty batch" `Quick test_empty_batch;
          Alcotest.test_case "fewer jobs than workers" `Quick
            test_fewer_jobs_than_workers;
          Alcotest.test_case "jobs clamped to 1" `Quick test_jobs_clamped;
          Alcotest.test_case "submission order" `Quick test_submission_order;
        ] );
    ]
