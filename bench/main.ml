(* Benchmark / reproduction harness: one target per table and figure of the
   paper's evaluation (Section 6).

     dune exec bench/main.exe                 # all figures
     dune exec bench/main.exe -- fig2         # one figure
     dune exec bench/main.exe -- all --n 4000 --instances 100   # paper scale

   Absolute counts depend on the topology size (the paper used a ~27k-AS
   RouteViews graph; the default here is 1000 ASes), so each table prints
   the measured value, the measured ratio to the BGP bar, and the paper's
   value and ratio: the ratios are the reproduction target. *)

type config = {
  n : int;
  instances : int;
  seed : int;
  samples : int;
  mrai : float;
  csv_dir : string option;
  jobs : int;
  json : string option;
  max_events : int;
  max_vtime : float;
  trace_file : string option;
}

let default_config =
  {
    n = 1000;
    instances = 30;
    seed = 1;
    samples = 100;
    mrai = 30.;
    csv_dir = None;
    jobs = Parallel.default_jobs ();
    json = None;
    max_events = Runner.default_budget.Runner.max_events;
    max_vtime = Runner.default_budget.Runner.max_vtime;
    trace_file = None;
  }

let budget cfg =
  { Runner.max_events = cfg.max_events; max_vtime = cfg.max_vtime }

let usage () =
  prerr_endline
    "usage: main.exe [fig1|fig2|fig3a|fig3b|node|policy|partial|overhead|delay|\n\
    \                 flap|churn|ablation|motivation|trace|smoke|staticcheck|\n\
    \                 all]\n\
    \                [--n N] [--instances I] [--seed S] [--samples K] [--mrai M]\n\
    \                [--csv DIR] [--jobs N] [--json FILE] [--trace FILE]\n\
    \                [--max-events N] [--max-vtime SECONDS]";
  exit 2

let parse_args () =
  let target = ref "all" in
  let cfg = ref default_config in
  let rec loop = function
    | [] -> ()
    | "--n" :: v :: rest ->
      cfg := { !cfg with n = int_of_string v };
      loop rest
    | "--instances" :: v :: rest ->
      cfg := { !cfg with instances = int_of_string v };
      loop rest
    | "--seed" :: v :: rest ->
      cfg := { !cfg with seed = int_of_string v };
      loop rest
    | "--samples" :: v :: rest ->
      cfg := { !cfg with samples = int_of_string v };
      loop rest
    | "--mrai" :: v :: rest ->
      cfg := { !cfg with mrai = float_of_string v };
      loop rest
    | "--csv" :: v :: rest ->
      cfg := { !cfg with csv_dir = Some v };
      loop rest
    | "--jobs" :: v :: rest ->
      cfg := { !cfg with jobs = int_of_string v };
      loop rest
    | "--max-events" :: v :: rest ->
      cfg := { !cfg with max_events = int_of_string v };
      loop rest
    | "--max-vtime" :: v :: rest ->
      cfg := { !cfg with max_vtime = float_of_string v };
      loop rest
    | "--json" :: v :: rest ->
      (* fail now, not after a long sweep whose results would be lost *)
      (try close_out (open_out v)
       with Sys_error msg ->
         Printf.eprintf "error: --json %s: %s\n" v msg;
         exit 2);
      cfg := { !cfg with json = Some v };
      loop rest
    | "--trace" :: v :: rest ->
      (try close_out (open_out v)
       with Sys_error msg ->
         Printf.eprintf "error: --trace %s: %s\n" v msg;
         exit 2);
      cfg := { !cfg with trace_file = Some v };
      loop rest
    | name :: rest when name <> "" && name.[0] <> '-' ->
      target := name;
      loop rest
    | _ -> usage ()
  in
  loop (List.tl (Array.to_list Sys.argv));
  (!target, !cfg)

let the_topology = ref None

let topology cfg =
  match !the_topology with
  | Some t -> t
  | None ->
    let t = Topo_gen.generate (Topo_gen.default_params ~seed:cfg.seed ~n:cfg.n ()) in
    Format.printf "topology: %a@.@." Topology.pp_stats t;
    the_topology := Some t;
    t

let section title = Format.printf "=== %s ===@." title

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  Format.printf "(%.1fs)@.@." dt;
  (r, dt)

(* --- machine-readable bench output ------------------------------------ *)

(* One entry per executed target; flushed as a single JSON document by
   [write_json] so perf trajectories can be tracked in BENCH_*.json
   files. *)
let json_entries : string list ref = ref []

let record_target ?bars ?counters name wall =
  (* optional fields render exactly as before when absent, so pinned
     BENCH_*.json payloads (e.g. fig2's bars) stay byte-identical *)
  let opt field = function
    | None -> ""
    | Some j -> Printf.sprintf ", \"%s\": %s" field j
  in
  json_entries :=
    Printf.sprintf "{\"target\": %s, \"wall_s\": %.3f%s%s}"
      (Json.string name) wall (opt "bars" bars) (opt "counters" counters)
    :: !json_entries

let write_json cfg =
  match cfg.json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\"n\": %d, \"instances\": %d, \"seed\": %d, \"mrai\": %g, \"jobs\": \
       %d,\n \"targets\": [\n  %s\n]}\n"
      cfg.n cfg.instances cfg.seed cfg.mrai cfg.jobs
      (String.concat ",\n  " (List.rev !json_entries));
    close_out oc;
    Format.printf "(wrote %s)@." path

(* --- figure targets --------------------------------------------------- *)

let fig1 _pool cfg =
  section "Figure 1: CDF of Phi_k (probability that all ASes get both colours)";
  let (), wall =
    timed (fun () ->
        let r =
          Experiment.fig1 ~samples:cfg.samples
            ~intelligent_samples:(max 10 (cfg.samples / 3))
            ~seed:cfg.seed (topology cfg)
        in
        Format.printf "%a@." Report.pp_fig1 r)
  in
  record_target "fig1" wall

let write_csv cfg name content =
  match cfg.csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    Format.printf "(wrote %s)@." path

let bars pool cfg ~csv_name title scenario paper =
  section title;
  let rows, wall =
    timed (fun () ->
        let rows =
          Experiment.failure_bars_stats ~pool ~instances:cfg.instances
            ~seed:cfg.seed ~mrai_base:cfg.mrai ~scenario (topology cfg)
        in
        Format.printf "%a@." (Report.pp_bars_stats ~paper) rows;
        write_csv cfg csv_name (Report.bars_to_csv rows);
        rows)
  in
  record_target csv_name wall ~bars:(Report.bars_stats_to_json rows)

let fig2 pool cfg =
  bars pool cfg ~csv_name:"fig2"
    "Figure 2: ASes with transient problems, single provider-link failure"
    Scenario.single_link Report.paper_fig2

let fig3a pool cfg =
  bars pool cfg ~csv_name:"fig3a"
    "Figure 3(a): two failed links not connected to the same AS"
    Scenario.two_links_apart Report.paper_fig3a

let fig3b pool cfg =
  bars pool cfg ~csv_name:"fig3b"
    "Figure 3(b): two failed links connected to the same AS"
    Scenario.two_links_shared Report.paper_fig3b

let node pool cfg =
  (* Section 6.2.2's closing remark: single node (AS) failures show the
     same conclusions as Figure 3(b); reuse its paper column. *)
  bars pool cfg ~csv_name:"node"
    "Node failure: one provider of the origin fails entirely"
    Scenario.node_failure Report.paper_fig3b

let policy pool cfg =
  section
    "Policy-change event: the origin stops announcing to one provider \
     (same event class as Figure 2, no physical failure)";
  let b, wall =
    timed (fun () ->
        let b =
          Experiment.failure_bars ~pool ~instances:cfg.instances ~seed:cfg.seed
            ~mrai_base:cfg.mrai ~scenario:Scenario.policy_withdraw
            (topology cfg)
        in
        Format.printf "%a@." Report.pp_bars_plain b;
        b)
  in
  record_target "policy" wall ~bars:(Report.bars_to_json b)

let partial pool cfg =
  section "Section 6.3: partial deployment at tier-1 ASes only";
  let (), wall =
    timed (fun () ->
        let f = Experiment.partial_deployment (topology cfg) in
        Format.printf
          "fraction of destinations with two disjoint tier-1 downhill paths: \
           %.3f   (paper: ~0.75)@."
          f;
        Format.printf "incremental deployment (STAMP at tiers <= k, static):@.";
        List.iter
          (fun (k, frac) ->
            Format.printf "  k = %d : %5.1f%% of destinations protected@." k
              (100. *. frac))
          (Phi.deployment_curve (topology cfg) ~max_tier:3);
        Format.printf
          "incremental deployment (dynamic: avg transient ASes, single-link \
           workload):@.";
        let bgp_avg =
          List.assoc Runner.Bgp
            (Experiment.failure_bars ~pool
               ~instances:(max 5 (cfg.instances / 3))
               ~seed:cfg.seed ~scenario:Scenario.single_link (topology cfg))
        in
        Format.printf "  plain BGP        : %8.1f@." bgp_avg;
        List.iter
          (fun (k, avg) -> Format.printf "  STAMP at k <= %d  : %8.1f@." k avg)
          (Experiment.partial_deployment_dynamic ~pool
             ~instances:(max 5 (cfg.instances / 3))
             ~seed:cfg.seed ~max_tier:2 (topology cfg)))
  in
  record_target "partial" wall

let overhead_delay pool cfg =
  section "Section 6.3: protocol message overhead and convergence delay";
  let (), wall =
    timed (fun () ->
        let rows =
          Experiment.overhead_and_delay ~pool ~instances:cfg.instances
            ~seed:cfg.seed ~mrai_base:cfg.mrai (topology cfg)
        in
        Format.printf "%a@." Report.pp_overhead rows)
  in
  record_target "overhead" wall

let ablation pool cfg =
  let t0 = Unix.gettimeofday () in
  section "Ablation: STAMP protocol variants (avg ASes with transient problems)";
  ignore @@ timed (fun () ->
      List.iter
        (fun (label, avg) -> Format.printf "  %-45s %8.1f@." label avg)
        (Experiment.ablation_stamp_variants ~pool
           ~instances:(max 5 (cfg.instances / 2))
           ~seed:cfg.seed (topology cfg)));
  section
    "Ablation: MRAI base interval (affected ASes / reconvergence delay)";
  ignore @@ timed (fun () ->
      List.iter
        (fun (mrai, rows) ->
          Format.printf "  MRAI base %5.1fs:" mrai;
          List.iter
            (fun (p, transients, delay) ->
              Format.printf "  %s=%.1f/%.1fs" (Runner.protocol_name p)
                transients delay)
            rows;
          Format.printf "@.")
        (Experiment.ablation_mrai ~pool
           ~instances:(max 5 (cfg.instances / 3))
           ~seed:cfg.seed
           ~values:[ 0.; 5.; 15.; 30.; 60. ]
           (topology cfg)));
  section
    "Ablation: control-plane detection delay (data-plane fallbacks keep \
     working)";
  ignore @@ timed (fun () ->
      List.iter
        (fun (delay, bars) ->
          Format.printf "  detect after %5.2fs:" delay;
          List.iter
            (fun (p, avg) ->
              Format.printf "  %s=%.1f" (Runner.protocol_name p) avg)
            bars;
          Format.printf "@.")
        (Experiment.ablation_detection ~pool
           ~instances:(max 5 (cfg.instances / 3))
           ~seed:cfg.seed
           ~values:[ 0.; 0.5; 2.; 10. ]
           (topology cfg)));
  section "Ablation: topology-family sensitivity (single-link workload)";
  ignore @@ timed (fun () ->
      List.iter
        (fun (label, bars) ->
          Format.printf "  %-22s" label;
          List.iter
            (fun (p, avg) ->
              Format.printf "  %s=%.1f" (Runner.protocol_name p) avg)
            bars;
          Format.printf "@.")
        (Experiment.ablation_topology ~pool
           ~instances:(max 4 (cfg.instances / 4))
           ~seed:cfg.seed ~n:(min cfg.n 600) ()));
  section "Ablation: transient-monitor probe interval (BGP)";
  ignore @@ timed (fun () ->
      List.iter
        (fun (interval, avg) ->
          Format.printf "  probe every %6.3fs: %8.1f affected ASes@." interval avg)
        (Experiment.ablation_probe_interval ~pool
           ~instances:(max 5 (cfg.instances / 3))
           ~seed:cfg.seed
           ~values:[ 0.01; 0.02; 0.05; 0.2; 1.0 ]
           (topology cfg)));
  record_target "ablation" (Unix.gettimeofday () -. t0)

let motivation pool cfg =
  section
    "Motivation check (Section 1): share of packet-loss observations that \
     are loops";
  let (), wall =
    timed (fun () ->
        List.iter
          (fun (p, share) ->
            Format.printf "  %-20s %s@." (Runner.protocol_name p)
              (if Float.is_nan share then "no losses at all"
               else
                 Printf.sprintf "%5.1f%% of losses are loops" (100. *. share)))
          (Experiment.motivation_loss_composition ~pool
             ~instances:(max 5 (cfg.instances / 2))
             ~seed:cfg.seed (topology cfg));
        Format.printf
          "  (measurement studies the paper cites attribute up to 90%% of \
           convergence losses to loops)@.")
  in
  record_target "motivation" wall

(* --- tracing: overhead target and --trace recording -------------------- *)

let trace_overhead _pool cfg =
  section "Tracing cost: null sink vs memory sink (sequential)";
  let r, wall =
    timed (fun () ->
        let r =
          Experiment.trace_overhead
            ~instances:(max 4 (cfg.instances / 3))
            ~seed:cfg.seed ~mrai_base:cfg.mrai (topology cfg)
        in
        Format.printf
          "  null sink %.3fs, memory sink %.3fs, %d events recorded@."
          r.Experiment.null_s r.Experiment.memory_s r.Experiment.traced_events;
        if not r.Experiment.identical then begin
          prerr_endline
            "trace: FAIL — memory-sink results differ from the null-sink run";
          exit 1
        end;
        Format.printf "  results bit-identical across both sinks@.";
        r)
  in
  record_target "trace" wall
    ~counters:
      (Printf.sprintf
         "{\"null_s\": %.3f, \"memory_s\": %.3f, \"traced_events\": %d}"
         r.Experiment.null_s r.Experiment.memory_s r.Experiment.traced_events)

(* [--trace FILE]: stream the JSONL trace of one representative run (plain
   BGP on the first single-link instance of the configured seed) so any
   bench invocation can leave behind an inspectable event log for
   [stamp_trace]. *)
let write_trace cfg =
  match cfg.trace_file with
  | None -> ()
  | Some path ->
    let t = topology cfg in
    let spec = Scenario.single_link (Random.State.make [| cfg.seed |]) t in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        ignore
          (Runner.run ~seed:cfg.seed ~mrai_base:cfg.mrai
             ~trace:(Trace.stream oc) Runner.Bgp t spec));
    Format.printf "(wrote %s)@." path

(* --- churn workloads --------------------------------------------------- *)

let churn_target pool cfg ~name ~title scenario =
  section title;
  let sweep, wall =
    timed (fun () ->
        let ((_, summaries) as sweep) =
          Experiment.churn_sweep ~pool
            ~instances:(max 4 (cfg.instances / 3))
            ~seed:cfg.seed ~mrai_base:cfg.mrai ~budget:(budget cfg) ~scenario
            (topology cfg)
        in
        Format.printf "%a@." Report.pp_churn summaries;
        sweep)
  in
  record_target name wall ~bars:(Report.churn_to_json sweep)

let flap pool cfg =
  churn_target pool cfg ~name:"flap"
    ~title:
      "Flapping: one origin provider link fails/recovers 5 times (60s period)"
    (Scenario.flap ~period:60. ~count:5)

let churn pool cfg =
  churn_target pool cfg ~name:"churn"
    ~title:
      "Churn: Poisson link fail/recover stream in the origin's cone (rate \
       0.05/s over 600s)"
    (Scenario.churn ~rate:0.05 ~duration:600.)

(* --- staticcheck: analyzer cost on the experiment topology ------------- *)

(* How much does pre-flighting cost relative to the simulations it guards?
   Times one whole-topology sweep (every check over every destination, the
   CLI path) with the per-check breakdown, then a Runner-path batch
   (one spec-scoped analysis per instance) inline and through the pool. *)
let staticcheck pool cfg =
  section
    (Printf.sprintf "Static analyzer: whole-topology sweep + %d pre-flights"
       cfg.instances);
  let t = topology cfg in
  let report, wall_sweep = timed (fun () -> Staticcheck.analyze t) in
  List.iter
    (fun (id, dt) -> Format.printf "  %-22s %8.1f ms@." id (dt *. 1000.))
    report.Staticcheck.timings;
  Format.printf "  diagnostics: %d errors, %d warnings; %s@.@."
    (List.length (Staticcheck.errors report))
    (List.length (Staticcheck.warnings report))
    (Staticcheck.certificate_to_string report.Staticcheck.certificate);
  let st = Random.State.make [| cfg.seed |] in
  let specs = List.init cfg.instances (fun _ -> Scenario.single_link st t) in
  let inline, wall_inline =
    timed (fun () -> Staticcheck.preflight ~mrai_base:cfg.mrai t specs)
  in
  let pooled, wall_pool =
    timed (fun () -> Staticcheck.preflight ~pool ~mrai_base:cfg.mrai t specs)
  in
  let strip (r : Staticcheck.report) = (r.Staticcheck.diagnostics, r.Staticcheck.certificate) in
  if List.map strip inline <> List.map strip pooled then begin
    prerr_endline
      "staticcheck: FAIL — pooled pre-flight differs from inline";
    exit 1
  end;
  Format.printf
    "preflight: %d specs, %.1f ms inline, %.1f ms on %d workers@."
    cfg.instances (wall_inline *. 1000.) (wall_pool *. 1000.)
    (Parallel.jobs pool);
  record_target "staticcheck" (wall_sweep +. wall_inline +. wall_pool)

(* --- smoke: the dune-runtest fast path --------------------------------- *)

(* Tiny topology, two instances: exercises the domain pool on every
   [dune runtest] and fails loudly if parallel execution ever diverges
   from the sequential baseline. *)
let smoke pool cfg =
  (* n = 200 / 6 instances is the smallest configuration where the default
     seed yields nonzero BGP bars, so the comparison below is not
     vacuous. *)
  section
    (Printf.sprintf
       "Smoke: pool determinism, jobs=%d vs sequential (n=200, 6 instances)"
       (Parallel.jobs pool));
  let topo =
    Topo_gen.generate (Topo_gen.default_params ~seed:cfg.seed ~n:200 ())
  in
  let run ?pool () =
    Experiment.failure_bars_stats ?pool ~instances:6 ~seed:cfg.seed
      ~mrai_base:cfg.mrai ~scenario:Scenario.single_link topo
  in
  let seq, _ = timed (fun () -> run ()) in
  let par, wall = timed (fun () -> run ~pool ()) in
  if seq <> par then begin
    prerr_endline
      "smoke: FAIL — parallel results differ from the sequential baseline";
    exit 1
  end;
  Format.printf "smoke OK: jobs=%d bit-identical to sequential@."
    (Parallel.jobs pool);
  (* watchdog wiring check: a churn sweep under a deliberately tiny event
     budget must complete (no hang, no abort) with every instance reporting
     an event-budget-exhausted verdict *)
  let _, summaries =
    Experiment.churn_sweep ~pool ~instances:2 ~seed:cfg.seed
      ~mrai_base:cfg.mrai
      ~budget:{ Runner.max_events = 50; max_vtime = 86_400. }
      ~scenario:(Scenario.flap ~period:60. ~count:3)
      topo
  in
  List.iter
    (fun (s : Experiment.churn_summary) ->
      if s.crashed > 0 || s.completed <> 2 || s.event_budget_exhausted <> 2
      then begin
        Format.eprintf
          "smoke: FAIL — %s: expected 2 event-budget-exhausted verdicts, got \
           completed=%d crashed=%d ev-budget=%d@."
          (Runner.protocol_name s.protocol)
          s.completed s.crashed s.event_budget_exhausted;
        exit 1
      end)
    summaries;
  Format.printf "smoke OK: tiny-budget churn sweep recorded %d \
                 event-budget-exhausted verdicts@."
    (List.fold_left
       (fun acc (s : Experiment.churn_summary) ->
         acc + s.event_budget_exhausted)
       0 summaries);
  (* counter wiring check: every engine in Runner.engines reports per-run update
     counters that are non-negative, consistent with the message totals,
     and serialised with all four fields present in the --json payload *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let spec = Scenario.single_link (Random.State.make [| cfg.seed |]) topo in
  let counter_rows =
    List.map
      (fun (engine_name, engine) ->
        let r =
          Runner.run_engine ~seed:cfg.seed ~mrai_base:cfg.mrai engine topo spec
        in
        let c = r.Runner.counters in
        if not (Counters.non_negative c) then begin
          Format.eprintf "smoke: FAIL — %s reports negative counters: %a@."
            engine_name Counters.pp c;
          exit 1
        end;
        if Counters.messages c <> r.Runner.messages_initial + r.Runner.messages_event
        then begin
          Format.eprintf
            "smoke: FAIL — %s: counters (%a) disagree with message totals \
             %d+%d@."
            engine_name Counters.pp c r.Runner.messages_initial
            r.Runner.messages_event;
          exit 1
        end;
        let j = Report.counters_to_json c in
        List.iter
          (fun field ->
            if not (contains j ("\"" ^ field ^ "\"")) then begin
              Format.eprintf "smoke: FAIL — counters JSON misses %S: %s@."
                field j;
              exit 1
            end)
          [ "announcements"; "withdrawals"; "mrai_deferrals"; "lost_to_resets" ];
        Printf.sprintf "{\"engine\": %s, \"counters\": %s}"
          (Json.string engine_name) j)
      Runner.engines
  in
  Format.printf "smoke OK: update counters wired for %d engines@."
    (List.length counter_rows);
  record_target "smoke" wall
    ~bars:(Report.bars_stats_to_json par)
    ~counters:("[" ^ String.concat ", " counter_rows ^ "]")

(* --- main ---------------------------------------------------------------- *)

let () =
  let target, cfg = parse_args () in
  let pool = Parallel.create ~jobs:cfg.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      (match target with
      | "fig1" -> fig1 pool cfg
      | "fig2" -> fig2 pool cfg
      | "fig3a" -> fig3a pool cfg
      | "fig3b" -> fig3b pool cfg
      | "node" -> node pool cfg
      | "policy" -> policy pool cfg
      | "partial" -> partial pool cfg
      | "overhead" | "delay" -> overhead_delay pool cfg
      | "ablation" -> ablation pool cfg
      | "motivation" -> motivation pool cfg
      | "flap" -> flap pool cfg
      | "churn" -> churn pool cfg
      | "trace" -> trace_overhead pool cfg
      | "smoke" -> smoke pool cfg
      | "staticcheck" -> staticcheck pool cfg
      | "all" ->
        fig1 pool cfg;
        fig2 pool cfg;
        fig3a pool cfg;
        fig3b pool cfg;
        node pool cfg;
        policy pool cfg;
        partial pool cfg;
        overhead_delay pool cfg;
        motivation pool cfg;
        flap pool cfg;
        churn pool cfg;
        ablation pool cfg
      | _ -> usage ());
      write_trace cfg;
      write_json cfg)
