(* The repository benchmark: the paper's seeded failure-simulation sweeps
   (Section 6), timed end to end with tracing off, and split over the
   library's layers by a second pass that times calls into their public
   functions from outside. One process, one job at a time, no [Parallel]
   pool.

     bash stampbench/run.sh --workload fig2 --seed 1 --seconds 20 --trace 0

   Every line but the last prints one metric with its unit and base; the
   last line is one JSON object {"correct", "attempted", "failed",
   "metrics"} holding the end-to-end metrics ([--trace 0]) or the per-layer
   metrics ([--trace 1]). The exit code is 1 when an output check fails and
   2 on bad arguments. README.md has the layer -> metric -> workload table. *)

let mrai_base = 30.
let interval = 0.02
let budget = Runner.default_budget
let default_seed = 1

(* Set-up is repeated and its median reported, so set-up time is steady
   enough to bound. *)
let setup_reps = 5
let setup_budget_s = 1.
let setup_max_reps = 200

type workload = {
  name : string;
  n : int;
  instances : int;
  scenario : string;
  sample : Random.State.t -> Topology.t -> Scenario.spec;
}

let workloads =
  [
    {
      name = "fig2";
      n = 1000;
      instances = 30;
      scenario = "single_link";
      sample = Scenario.single_link;
    };
    {
      name = "churn";
      n = 1000;
      instances = 10;
      scenario = "churn rate=0.05/s duration=600s";
      sample = Scenario.churn ~rate:0.05 ~duration:600.;
    };
    {
      name = "coldstart";
      n = 4000;
      instances = 20;
      scenario = "single_link destination, no events";
      sample =
        (fun st t -> { (Scenario.single_link st t) with Scenario.events = [] });
    };
  ]

(* --- clock and samples --------------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9
let ratio a b = if b = 0. then 0. else a /. b

(* A growable int array: per-probe times are pushed inside the traced
   pass, where a list would allocate on every probe. *)
type samples = { mutable data : int array; mutable len : int }

let push s x =
  if s.len = Array.length s.data then begin
    let data = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 data 0 s.len;
    s.data <- data
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_floats s = List.init s.len (fun i -> float_of_int s.data.(i))

(* The highest percentile with at least [beyond] samples above it: the
   sample at sorted index [count - beyond - 1]. Returns the value, the
   percentile and the sample count. *)
let tail ~beyond xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let count = Array.length a in
  let k = max 0 (count - beyond - 1) in
  (a.(k), 100. *. float_of_int (k + 1) /. float_of_int count, count)

(* --- set-up ---------------------------------------------------------------- *)

type setup = {
  topo : Topology.t;
  specs : (int * Scenario.spec) list;
  times : (int * int) list;  (** (generate, sample) ns per repetition *)
}

(* The topology, the scenarios and the per-job seeds are the default
   seed's for every run: a new graph, new scenarios or new job seeds move
   a sweep's cost (churn's event count, a destination's cone, the number of
   MRAI rounds a job waits through) by more than any bound could absorb.
   [--seed] draws the order a sweep runs its jobs in, see [job_order]. *)
let setup_once (w : workload) =
  let t0 = now_ns () in
  let topo =
    Topo_gen.generate (Topo_gen.default_params ~seed:default_seed ~n:w.n ())
  in
  let t1 = now_ns () in
  let st = Random.State.make [| default_seed |] in
  let specs = List.init w.instances (fun i -> (i, w.sample st topo)) in
  let t2 = now_ns () in
  { topo; specs; times = [ (t1 - t0, t2 - t1) ] }

(* The other set-up repetitions, timed after the sweeps so that their
   graphs never raise the sweeps' peak heap; each is dropped once its
   scenarios are compared with the first's. Set-up repeats at least
   [setup_reps] times and until [setup_budget_s] is spent, at most
   [setup_max_reps] times. *)
let repeat_setup w s =
  let budget = int_of_float (setup_budget_s *. 1e9) in
  let rec rep k spent acc =
    if k >= setup_max_reps || (k >= setup_reps && spent >= budget) then acc
    else begin
      let s' = setup_once w in
      if s'.specs <> s.specs then failwith "set-up is not deterministic";
      let g, m = List.hd s'.times in
      rep (k + 1) (spent + g + m) ((g, m) :: acc)
    end
  in
  let g, m = List.hd s.times in
  rep 1 (g + m) s.times

let setup_medians times =
  let med f = Stat.median (List.map (fun t -> secs (f t)) times) in
  (med fst, med snd, med (fun (g, s) -> g + s), List.length times)

(* --- jobs ------------------------------------------------------------------ *)

(* [Runner.run p] is [Runner.run_engine (Runner.engine_of_protocol p)]. The
   untraced pass runs the same engine module with [create] noting the
   job's simulation, so [Sim.events_processed] can be read after the job
   without running it a second time. *)
let last_sim = ref None

let spied protocol : (module Engine.S) =
  let module E = (val Runner.engine_of_protocol protocol) in
  (module struct
    include E

    let create sim topo ~dest config =
      last_sim := Some sim;
      create sim topo ~dest config
  end)

type job = {
  protocol : Runner.protocol;
  engine : (module Engine.S);
  instance : int;
  spec : Scenario.spec;
}

(* Protocol-major, seeded [default_seed + instance]: the order and seeds of
   [Experiment.failure_bars_stats]. *)
let make_jobs specs =
  List.concat_map
    (fun protocol ->
      let engine = spied protocol in
      List.map (fun (instance, spec) -> { protocol; engine; instance; spec }) specs)
    Runner.all_protocols

let label job =
  Printf.sprintf "%s instance %d" (Runner.protocol_name job.protocol)
    job.instance

type run = {
  outcome : (Runner.result, string) result;
  job_ns : int;
  job_events : int;
}

let job_seed job = default_seed + job.instance

(* The order a sweep runs its jobs in: a permutation drawn from [--seed].
   Jobs are independent, so their results do not depend on it; the
   [Runner] state a job meets (heap, caches) does. *)
let job_order ~seed n =
  let st = Random.State.make [| seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [f] applied to every job in [order]; results in job order. *)
let in_order order jobs f =
  let jobs = Array.of_list jobs in
  let out = Array.make (Array.length jobs) None in
  Array.iter (fun k -> out.(k) <- Some (f jobs.(k))) order;
  List.map Option.get (Array.to_list out)

let run_untraced topo job =
  let t0 = now_ns () in
  let outcome =
    match
      Runner.run_engine ~seed:(job_seed job) ~mrai_base ~interval
        job.engine topo job.spec
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let job_ns = now_ns () - t0 in
  let job_events =
    match !last_sim with Some sim -> Sim.events_processed sim | None -> 0
  in
  last_sim := None;
  { outcome; job_ns; job_events }

type sweep = { runs : run list; wall_ns : int }

let sweep ~order topo jobs =
  let t0 = now_ns () in
  let runs = in_order order jobs (run_untraced topo) in
  { runs; wall_ns = now_ns () - t0 }

(* --- output checks ----------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL " ^ s)) fmt

(* What a pinned digest covers. *)
let canonical (r : Runner.result) =
  let c = r.counters in
  Printf.sprintf
    "transients=%d broken=%d messages=%d+%d checkpoints=%d announcements=%d \
     withdrawals=%d mrai_deferrals=%d lost_to_resets=%d verdict=%s"
    r.transient_count r.broken_after r.messages_initial r.messages_event
    r.checkpoints c.announcements c.withdrawals c.mrai_deferrals
    c.lost_to_resets
    (Sim.verdict_name r.verdict)

let digest r = Digest.to_hex (Digest.string (canonical r))

(* Pinned outputs, the same for every seed: lines "<workload> <job>
   <digest>" and "<workload> bars <json>"; '#' starts a comment. *)
let pins workload =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | w :: key :: (_ :: _ as value) when w = workload ->
        Some (key, String.concat " " value)
      | _ -> None)
    (String.split_on_char '\n' Pins.text)

(* Every run must converge and keep its counters consistent with its
   message totals. *)
let sane (r : Runner.result) =
  Sim.equal_verdict r.verdict Sim.Converged
  && Counters.non_negative r.counters
  && Counters.messages r.counters = r.messages_initial + r.messages_event

(* Check one job of an untraced sweep against the invariants, its pin and
   the same job of the run's first sweep. *)
let check_job ~pinned ~reference k job run =
  match run.outcome with
  | Error e ->
    fail "%s: raised %s" (label job) e;
    false
  | Ok r when not (sane r) ->
    fail "%s: not converged or inconsistent: %s" (label job) (canonical r);
    false
  | Ok r -> (
    let key = string_of_int k in
    match (pinned, List.assoc_opt key pinned) with
    | _ :: _, None ->
      fail "%s: no pin; expected line: %s" (label job) (key ^ " " ^ digest r);
      false
    | _, Some d when d <> digest r ->
      fail "%s: digest %s, pinned %s (%s)" (label job) (digest r) d
        (canonical r);
      false
    | _ -> (
      match reference with
      | Some { outcome = Ok r0; _ } when r0 <> r ->
        fail "%s: differs from the first sweep" (label job);
        false
      | _ -> true))

let check_sweep ~pinned ~reference jobs sweep =
  let refs =
    match reference with
    | Some s -> List.map Option.some s.runs
    | None -> List.map (fun _ -> None) jobs
  in
  let oks =
    List.mapi
      (fun k (job, (run, reference)) -> check_job ~pinned ~reference k job run)
      (List.combine jobs (List.combine sweep.runs refs))
  in
  List.length (List.filter not oks)

(* fig2's bars, rendered exactly as the bench harness writes them to
   BENCH_fig2.json. *)
let bars (w : workload) sweep =
  let counts =
    List.map
      (fun run ->
        match run.outcome with
        | Ok r -> float_of_int r.Runner.transient_count
        | Error _ -> nan)
      sweep.runs
  in
  Report.bars_stats_to_json
    (List.mapi
       (fun k protocol ->
         ( protocol,
           Stat.summarize
             (List.filteri (fun j _ -> j / w.instances = k) counts) ))
       Runner.all_protocols)

(* --- traced pass --------------------------------------------------------- *)

type span = { mutable ns : int; mutable words : float; mutable calls : int }

let span () = { ns = 0; words = 0.; calls = 0 }

let timed s f =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let x = f () in
  s.ns <- s.ns + (now_ns () - t0);
  s.words <- s.words +. (Gc.minor_words () -. w0);
  s.calls <- s.calls + 1;
  x

type layers = {
  check : span;
  create : span;
  converge : span;
  event : span;  (** injection + monitor, probes and harness included *)
  probe : span;
  harness : span;  (** this pass's own work inside the probe closure *)
  probe_times : samples;
  mutable probes_changed : int;
  mutable converge_events : int;
  mutable converge_messages : int;
  mutable event_events : int;
  mutable event_messages : int;
  mutable deferrals : int;
  mutable lost : int;
}

let layers () =
  {
    check = span ();
    create = span ();
    converge = span ();
    event = span ();
    probe = span ();
    harness = span ();
    probe_times = { data = Array.make 4096 0; len = 0 };
    probes_changed = 0;
    converge_events = 0;
    converge_messages = 0;
    event_events = 0;
    event_messages = 0;
    deferrals = 0;
    lost = 0;
  }

(* Runner's private event dispatch, restated: [At] defers the inner event
   on the simulation clock. *)
let rec inject net sim = function
  | Scenario.Fail_link (u, v) -> Engine.fail_link net u v
  | Scenario.Fail_node v -> Engine.fail_node net v
  | Scenario.Deny_export (u, v) -> Engine.deny_export net u v
  | Scenario.Recover_link (u, v) -> Engine.recover_link net u v
  | Scenario.Recover_node v -> Engine.recover_node net v
  | Scenario.Allow_export (u, v) -> Engine.allow_export net u v
  | Scenario.At (dt, e) -> Sim.schedule sim ~delay:dt (fun _ -> inject net sim e)

(* One job through the public calls [Runner.run_engine] composes, each
   wrapped in a span; returns the [Runner.result] it would have built. *)
let run_traced l topo job =
  let seed = job_seed job and spec = job.spec in
  let detect_delay = Option.value spec.detect_delay ~default:0. in
  let report =
    timed l.check (fun () ->
        let report = Staticcheck.analyze ~spec ~mrai_base ~detect_delay topo in
        Staticcheck.enforce ~what:"Runner scenario" `Warn report;
        report)
  in
  let sim, net =
    timed l.create (fun () ->
        let sim = Sim.create ~seed () in
        let config =
          { Engine.default_config with seed; mrai_base; detect_delay }
        in
        ( sim,
          Engine.create
            (Runner.engine_of_protocol job.protocol)
            sim topo ~dest:spec.dest config ))
  in
  let initial =
    timed l.converge (fun () ->
        Engine.start net;
        Sim.run_guarded sim ~until:budget.max_vtime
          ~max_events:budget.max_events)
  in
  if not (Sim.equal_verdict initial Sim.Converged) then
    failwith ("initial convergence " ^ Sim.verdict_name initial);
  let messages_initial = Engine.message_count net in
  let events_initial = Sim.events_processed sim in
  let before = Counters.snapshot (Engine.counters net) in
  l.converge_events <- l.converge_events + events_initial;
  l.converge_messages <- l.converge_messages + messages_initial;
  let event_time = Sim.now sim in
  (* the previous probe's statuses, copied: a probe counts as useful when
     its status array differs from the one before it in the same job *)
  let last = ref [||] in
  let probe () =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let statuses = Engine.probe net in
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    l.probe.ns <- l.probe.ns + (t1 - t0);
    l.probe.words <- l.probe.words +. (w1 -. w0);
    l.probe.calls <- l.probe.calls + 1;
    push l.probe_times (t1 - t0);
    if Array.length !last = 0 then last := Array.copy statuses
    else if not (Array.for_all2 Fwd_walk.equal_status statuses !last) then begin
      l.probes_changed <- l.probes_changed + 1;
      Array.blit statuses 0 !last 0 (Array.length statuses)
    end;
    (* the bookkeeping above is the harness's, not the event layer's *)
    l.harness.ns <- l.harness.ns + (now_ns () - t1);
    l.harness.words <- l.harness.words +. (Gc.minor_words () -. w1);
    statuses
  in
  let outcome, verdict =
    timed l.event (fun () ->
        List.iter (inject net sim) spec.events;
        Transient.run_guarded sim ~interval
          ~max_events:(max 1 (budget.max_events - Sim.events_processed sim))
          ~max_vtime:(event_time +. budget.max_vtime) ~probe ())
  in
  let after = Counters.snapshot (Engine.counters net) in
  let messages_event = Engine.message_count net - messages_initial in
  l.event_events <- l.event_events + Sim.events_processed sim - events_initial;
  l.event_messages <- l.event_messages + messages_event;
  l.deferrals <- l.deferrals + after.mrai_deferrals - before.mrai_deferrals;
  l.lost <- l.lost + after.lost_to_resets - before.lost_to_resets;
  {
    Runner.transient_count = Transient.transient_count outcome;
    broken_after =
      Array.fold_left
        (fun acc s ->
          if Fwd_walk.equal_status s Fwd_walk.Delivered then acc else acc + 1)
        0 outcome.final;
    convergence_delay = Float.max 0. (Engine.last_change net -. event_time);
    recovery_delay = Float.max 0. (outcome.last_status_change -. event_time);
    messages_initial;
    messages_event;
    checkpoints = outcome.checkpoints;
    counters = after;
    verdict;
    diagnostics = report.diagnostics;
    certificate = Some report.certificate;
    timeline = None;
  }

(* Drive every job through [run_traced] and compare each result with the
   untraced [Runner.run_engine] result of the same job. *)
let traced_pass ~order topo jobs untraced =
  let l = layers () in
  let t0 = now_ns () in
  let results =
    in_order order jobs (fun job ->
        match run_traced l topo job with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let traced_ns = now_ns () - t0 in
  let failed =
    List.fold_left2
      (fun failed job (traced, run) ->
        match (traced, run.outcome) with
        | Ok r, Ok r0 when r0 = r -> failed
        | Ok r, _ ->
          fail "%s: traced pass differs from Runner: %s" (label job)
            (canonical r);
          failed + 1
        | Error e, _ ->
          fail "%s: traced pass raised %s" (label job) e;
          failed + 1)
      0 jobs
      (List.combine results untraced.runs)
  in
  (l, traced_ns, failed)

(* --- reporting ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; base : string }

let metric ?(base = "") name unit value = { name; value; unit; base }

let print_metric m =
  Printf.printf "%-30s %16.6g %-8s %s\n" m.name m.value m.unit m.base

(* JSON number with every digit of the measurement. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (number m.value) m.unit)
          metrics))

let median_of f sweeps = Stat.median (List.map f sweeps)

let job_times s = List.map (fun r -> float_of_int r.job_ns) s.runs

(* Read before the repeated set-ups, whose graphs would raise it. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let end_to_end ~setup ~heap_mb sweeps =
  let first = List.hd sweeps in
  let events =
    List.fold_left (fun acc r -> acc + r.job_events) 0 first.runs
  in
  let wall_s = median_of (fun s -> secs s.wall_ns) sweeps in
  let _, pct, count = tail ~beyond:10 (job_times first) in
  let _, _, setup_s, reps = setup in
  [
    metric "wall_s" "s" wall_s
      ~base:
        (Printf.sprintf "median of %d sweeps: %s" (List.length sweeps)
           (String.concat " "
              (List.map (fun s -> Printf.sprintf "%.3f" (secs s.wall_ns)) sweeps)));
    metric "run_p50_ms" "ms"
      (median_of (fun s -> Stat.median (job_times s) *. 1e-6) sweeps)
      ~base:(Printf.sprintf "%d jobs" count);
    metric "run_tail_ms" "ms"
      (median_of
         (fun s ->
           let v, _, _ = tail ~beyond:10 (job_times s) in
           v *. 1e-6)
         sweeps)
      ~base:(Printf.sprintf "p%.1f of %d jobs" pct count);
    metric "sim_events_per_s" "events/s"
      (float_of_int events /. wall_s)
      ~base:(Printf.sprintf "%d events per sweep" events);
    metric "setup_s" "s" setup_s
      ~base:(Printf.sprintf "median of %d set-ups" reps);
    metric "peak_heap_mb" "MB" heap_mb ~base:"Gc top_heap_words";
  ]

let per_layer ~setup ~n ~untraced_ns ~gc (l, traced_ns, _) =
  let s ns = secs ns in
  let generate_s, sample_s, _, reps = setup in
  let event_ns = l.event.ns - l.probe.ns - l.harness.ns in
  let busy =
    l.check.ns + l.create.ns + l.converge.ns + l.event.ns - l.harness.ns
  in
  let probes = l.probe.calls in
  let times = to_floats l.probe_times in
  let p50 = if probes = 0 then 0. else Stat.median times in
  let tail_v, tail_pct, _ =
    if probes = 0 then (0., 0., 0) else tail ~beyond:(max 10 (probes / 100)) times
  in
  let minor, majors = gc in
  let f = float_of_int in
  [
    metric "topo_gen.generate_s" "s" generate_s
      ~base:(Printf.sprintf "median of %d" reps);
    metric "scenario.sample_s" "s" sample_s
      ~base:(Printf.sprintf "median of %d" reps);
    metric "staticcheck.busy_s" "s" (s l.check.ns);
    metric "staticcheck.calls" "count" (f l.check.calls);
    metric "engine.create.busy_s" "s" (s l.create.ns);
    metric "engine.create.ms_per_run" "ms"
      (ratio (f l.create.ns *. 1e-6) (f l.create.calls))
      ~base:(Printf.sprintf "%d runs" l.create.calls);
    metric "engine.create.minor_mwords" "Mwords" (l.create.words *. 1e-6);
    metric "converge.busy_s" "s" (s l.converge.ns);
    metric "converge.events" "count" (f l.converge_events);
    metric "converge.messages" "count" (f l.converge_messages);
    metric "converge.us_per_event" "us"
      (ratio (f l.converge.ns *. 1e-3) (f l.converge_events));
    metric "converge.minor_mwords" "Mwords" (l.converge.words *. 1e-6);
    metric "event.busy_s" "s" (s event_ns)
      ~base:"probe and harness time excluded";
    metric "event.events" "count" (f l.event_events);
    metric "event.messages" "count" (f l.event_messages);
    metric "event.mrai_deferrals" "count" (f l.deferrals);
    metric "event.lost_to_resets" "count" (f l.lost);
    metric "event.us_per_event" "us"
      (ratio (f event_ns *. 1e-3) (f l.event_events));
    metric "event.minor_mwords" "Mwords"
      ((l.event.words -. l.probe.words -. l.harness.words) *. 1e-6);
    metric "probe.calls" "count" (f probes);
    metric "probe.busy_s" "s" (s l.probe.ns);
    metric "probe.p50_us" "us" (p50 *. 1e-3)
      ~base:(Printf.sprintf "%d probes" probes);
    metric "probe.tail_us" "us" (tail_v *. 1e-3)
      ~base:(Printf.sprintf "p%.2f of %d probes" tail_pct probes);
    metric "probe.ns_per_as" "ns" (ratio (f l.probe.ns) (f probes *. f n))
      ~base:(Printf.sprintf "%d ASes" n);
    metric "probe.useful_ratio" "ratio"
      (ratio (f l.probes_changed) (f probes))
      ~base:(Printf.sprintf "%d changed / %d probes" l.probes_changed probes);
    metric "probe.minor_words_per_call" "words"
      (ratio l.probe.words (f probes));
    metric "probe.share" "ratio"
      (ratio (f l.probe.ns) (f traced_ns))
      ~base:
        (Printf.sprintf "%.3f s probe / %.3f s traced wall" (s l.probe.ns)
           (s traced_ns));
    metric "gc.minor_mwords" "Mwords" (minor *. 1e-6)
      ~base:"untraced sweep";
    metric "gc.major_collections" "count" (f majors) ~base:"untraced sweep";
    metric "trace.overhead_frac" "ratio"
      ((f traced_ns /. f untraced_ns) -. 1.)
      ~base:
        (Printf.sprintf "%.3f s traced / %.3f s untraced; %.3f s harness"
           (s traced_ns) (s untraced_ns) (s l.harness.ns));
    metric "trace.coverage" "ratio"
      (ratio (f busy) (f traced_ns))
      ~base:
        (Printf.sprintf "%.3f s in layers / %.3f s traced wall" (s busy)
           (s traced_ns));
  ]

(* --- main ----------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: stampbench.exe --workload fig2|churn|coldstart [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref default_seed in
  let seconds = ref 20. and trace = ref false in
  let rec loop = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := List.find_opt (fun (w : workload) -> w.name = v) workloads;
      if !workload = None then usage ();
      loop rest
    | "--seed" :: v :: rest ->
      seed := (match int_of_string_opt v with Some s -> s | None -> usage ());
      loop rest
    | "--seconds" :: v :: rest ->
      seconds :=
        (match float_of_string_opt v with
        | Some s when s > 0. -> s
        | _ -> usage ());
      loop rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      loop rest
    | _ -> usage ()
  in
  loop (List.tl (Array.to_list Sys.argv));
  match !workload with
  | Some w -> (w, !seed, !seconds, !trace)
  | None -> usage ()

let () =
  let w, seed, seconds, traced = parse_args () in
  Printf.printf
    "workload: %s n=%d instances=%d scenario=%s protocols=%d mrai_s=%g \
     interval_s=%g seed=%d seconds=%g trace=%d\n"
    w.name w.n w.instances w.scenario
    (List.length Runner.all_protocols)
    mrai_base interval seed seconds (Bool.to_int traced);
  Printf.printf "env: ocaml=%s profile=%s nproc=%d jobs=1 word_size=%d\n"
    Sys.ocaml_version Build_info.profile
    (Domain.recommended_domain_count ())
    Sys.word_size;
  let setup = setup_once w in
  let jobs = make_jobs setup.specs in
  let pinned = pins w.name in
  let order = job_order ~seed (List.length jobs) in
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let first = sweep ~order setup.topo jobs in
  let gc1 = Gc.quick_stat () in
  let failed = ref (check_sweep ~pinned ~reference:None jobs first) in
  let attempted = ref (List.length jobs) in
  (match List.assoc_opt "bars" pinned with
  | Some expected ->
    incr attempted;
    let got = bars w first in
    if got <> expected then begin
      fail "%s bars %s, pinned %s" w.name got expected;
      incr failed
    end
  | None -> ());
  (* with tracing off, sweep again while another sweep fits in [seconds] *)
  let rec more acc elapsed =
    if traced || elapsed + first.wall_ns > int_of_float (seconds *. 1e9) then
      List.rev acc
    else begin
      let s = sweep ~order setup.topo jobs in
      attempted := !attempted + List.length jobs;
      failed := !failed + check_sweep ~pinned ~reference:(Some first) jobs s;
      more (s :: acc) (elapsed + s.wall_ns)
    end
  in
  let sweeps = more [ first ] first.wall_ns in
  let heap_mb = peak_heap_mb () in
  let setup_s = setup_medians (repeat_setup w setup) in
  let e2e = end_to_end ~setup:setup_s ~heap_mb sweeps in
  List.iter print_metric e2e;
  let metrics =
    if not traced then e2e
    else begin
      let ((_, _, traced_failed) as pass) =
        traced_pass ~order setup.topo jobs first
      in
      attempted := !attempted + List.length jobs;
      failed := !failed + traced_failed;
      let layer =
        per_layer ~setup:setup_s ~n:w.n ~untraced_ns:first.wall_ns
          ~gc:
            ( gc1.minor_words -. gc0.minor_words,
              gc1.major_collections - gc0.major_collections )
          pass
      in
      List.iter print_metric layer;
      layer
    end
  in
  Printf.printf "%-30s %16.6g %-8s %d failed / %d attempted\n" "fail_rate"
    (ratio (float_of_int !failed) (float_of_int !attempted))
    "ratio" !failed !attempted;
  print_result ~attempted:!attempted ~failed:!failed metrics;
  exit (if !failed = 0 then 0 else 1)
