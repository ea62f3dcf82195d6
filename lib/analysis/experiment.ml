type fig1_result = {
  cdf : Cdf.t;
  mean_random : float;
  mean_intelligent : float;
  frac_below_07 : float;
  frac_above_09 : float;
}

let fig1 ?(samples = 100) ?(intelligent_samples = 30) ?(seed = 1) topo =
  let st = Random.State.make [| seed |] in
  let phis = Phi.phi_all ~samples st topo in
  let st' = Random.State.make [| seed + 1 |] in
  let phis_intelligent =
    Phi.phi_all ~samples:intelligent_samples
      ~selection:Phi.Intelligent_selection st' topo
  in
  let values = Array.to_list phis in
  let cdf = Cdf.of_samples values in
  {
    cdf;
    mean_random = Cdf.mean cdf;
    mean_intelligent = Stat.mean (Array.to_list phis_intelligent);
    frac_below_07 = Cdf.fraction_at_most cdf 0.7;
    frac_above_09 = 1. -. Cdf.fraction_at_most cdf 0.9;
  }

(* --- the sweep driver ---------------------------------------------------- *)

let sample_specs ~instances ~seed scenario topo =
  let st = Random.State.make [| seed |] in
  List.init instances (fun _ -> scenario st topo)

(* Every sweep below is one call: run each variant on every spec, the jobs
   built variant-major with spec [i] seeded [seed + i], so the numbers are
   bit-identical whether they run inline ([pool] absent), on one worker,
   or on many. Returns each variant with its results in spec order. *)
let sweep ?pool ~seed ~specs variants run =
  let jobs =
    List.concat_map
      (fun v -> List.mapi (fun i spec -> (v, seed + i, spec)) specs)
      variants
  in
  let job (v, seed, spec) = run v ~seed spec in
  let results =
    Array.of_list
      (match pool with
      | None -> List.map job jobs
      | Some pool -> Parallel.map pool job jobs)
  in
  let k = List.length specs in
  List.mapi
    (fun j v -> (v, Array.to_list (Array.sub results (j * k) k)))
    variants

let transients rs =
  List.map (fun (r : Runner.result) -> float_of_int r.transient_count) rs

let mean_transients rs = Stat.mean (transients rs)

type bars = (Runner.protocol * float) list

let failure_bars_stats ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ~scenario topo =
  let specs = sample_specs ~instances ~seed scenario topo in
  sweep ?pool ~seed ~specs Runner.all_protocols (fun protocol ~seed spec ->
      Runner.run ~seed ~mrai_base ~interval protocol topo spec)
  |> List.map (fun (protocol, rs) -> (protocol, Stat.summarize (transients rs)))

let failure_bars ?pool ?instances ?seed ?mrai_base ?interval ~scenario topo =
  failure_bars_stats ?pool ?instances ?seed ?mrai_base ?interval ~scenario
    topo
  |> List.map (fun (protocol, (s : Stat.summary)) -> (protocol, s.mean))

type overhead_result = {
  protocol : Runner.protocol;
  avg_messages_initial : float;
  avg_messages_event : float;
  avg_delay : float;
  avg_recovery : float;
}

let overhead_and_delay ?pool ?(instances = 20) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  sweep ?pool ~seed ~specs Runner.all_protocols (fun protocol ~seed spec ->
      Runner.run ~seed ~mrai_base ~interval protocol topo spec)
  |> List.map (fun (protocol, results) ->
         let avg f = Stat.mean (List.map f results) in
         {
           protocol;
           avg_messages_initial =
             avg (fun r -> float_of_int r.Runner.messages_initial);
           avg_messages_event =
             avg (fun r -> float_of_int r.Runner.messages_event);
           avg_delay = avg (fun r -> r.Runner.convergence_delay);
           avg_recovery = avg (fun r -> r.Runner.recovery_delay);
         })

let partial_deployment = Phi.partial_deployment_tier1

let partial_deployment_dynamic ?pool ?(instances = 10) ?(seed = 1)
    ?(mrai_base = 30.) ~max_tier topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  let tiers = Tiers.classify topo in
  let ks = List.init (max_tier + 1) Fun.id in
  sweep ?pool ~seed ~specs ks (fun k ~seed spec ->
      Runner.run_engine ~seed ~mrai_base
        (Bgp_engine.hybrid ~deployed:(fun v -> tiers.(v) <= k) ())
        topo spec)
  |> List.map (fun (k, rs) -> (k, mean_transients rs))

let ablation_mrai ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  List.map
    (fun mrai_base ->
      ( mrai_base,
        sweep ?pool ~seed ~specs Runner.all_protocols
          (fun protocol ~seed spec ->
            Runner.run ~seed ~mrai_base protocol topo spec)
        |> List.map (fun (protocol, results) ->
               ( protocol,
                 mean_transients results,
                 Stat.mean
                   (List.map (fun r -> r.Runner.convergence_delay) results) ))
      ))
    values

let ablation_stamp_variants ?pool ?(instances = 15) ?(seed = 1) topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  let variants =
    [
      ("baseline (lock-only blue, random colouring)", Stamp_engine.make ());
      ( "spread unlocked blue to providers",
        Stamp_engine.make ~spread_unlocked_blue:true () );
      ( "intelligent locked-blue colouring",
        Stamp_engine.make ~strategy:(Coloring.Intelligent { samples = 30 }) ()
      );
    ]
  in
  sweep ?pool ~seed ~specs variants (fun (_, engine) ~seed spec ->
      Runner.run_engine ~seed engine topo spec)
  |> List.map (fun ((label, _), rs) -> (label, mean_transients rs))

let ablation_probe_interval ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  sweep ?pool ~seed ~specs values (fun interval ~seed spec ->
      Runner.run ~seed ~interval Runner.Bgp topo spec)
  |> List.map (fun (interval, rs) -> (interval, mean_transients rs))

let ablation_detection ?pool ?(instances = 10) ?(seed = 1) ~values topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  List.map
    (fun detect_delay ->
      ( detect_delay,
        sweep ?pool ~seed ~specs Runner.all_protocols
          (fun protocol ~seed spec ->
            Runner.run ~seed ~detect_delay protocol topo spec)
        |> List.map (fun (protocol, rs) -> (protocol, mean_transients rs)) ))
    values

let motivation_loss_composition ?pool ?(instances = 15) ?(seed = 1) topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  sweep ?pool ~seed ~specs Runner.all_protocols (fun protocol ~seed spec ->
      Runner.run_traffic ~seed protocol topo spec)
  |> List.map (fun (protocol, summaries) ->
         let total f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
         let loss = total (fun s -> s.Traffic.loss_events)
         and loops = total (fun s -> s.Traffic.loop_events) in
         let share =
           if loss = 0 then nan else float_of_int loops /. float_of_int loss
         in
         (protocol, share))

(* --- churn sweeps ------------------------------------------------------ *)

type churn_row = {
  row_protocol : Runner.protocol;
  instance : int;
  job_seed : int;
  outcome : (Runner.result, string) result;
}

type churn_summary = {
  protocol : Runner.protocol;
  completed : int;
  crashed : int;
  converged : int;
  event_budget_exhausted : int;
  time_budget_exhausted : int;
  avg_transients : float;
  avg_messages_event : float;
}

let churn_sweep ?pool ?(instances = 10) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) ?(budget = Runner.default_budget) ~scenario topo =
  let specs = sample_specs ~instances ~seed scenario topo in
  (* a crashing job becomes an [Error] row: churn workloads deliberately
     stress-test the engines, and one bad instance must not abort the
     sweep *)
  let per_protocol =
    sweep ?pool ~seed ~specs Runner.all_protocols (fun protocol ~seed spec ->
        match
          Runner.run ~seed ~mrai_base ~interval ~budget protocol topo spec
        with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e))
  in
  let rows =
    List.concat_map
      (fun (protocol, outcomes) ->
        List.mapi
          (fun i outcome ->
            {
              row_protocol = protocol;
              instance = i;
              job_seed = seed + i;
              outcome;
            })
          outcomes)
      per_protocol
  in
  let summaries =
    List.map
      (fun (protocol, outcomes) ->
        let ok = List.filter_map Result.to_option outcomes in
        let count v =
          List.length
            (List.filter
               (fun (r : Runner.result) -> Sim.equal_verdict r.verdict v)
               ok)
        in
        let favg f = if ok = [] then nan else Stat.mean (List.map f ok) in
        {
          protocol;
          completed = List.length ok;
          crashed = List.length outcomes - List.length ok;
          converged = count Sim.Converged;
          event_budget_exhausted = count Sim.Event_budget_exhausted;
          time_budget_exhausted = count Sim.Time_budget_exhausted;
          avg_transients =
            favg (fun (r : Runner.result) ->
                float_of_int r.Runner.transient_count);
          avg_messages_event =
            favg (fun (r : Runner.result) ->
                float_of_int r.Runner.messages_event);
        })
      per_protocol
  in
  (rows, summaries)

let ablation_topology ?pool ?(instances = 8) ?(seed = 1) ~n () =
  let base = Topo_gen.default_params ~seed ~n () in
  let variants =
    [
      ("default", base);
      ( "sparse multi-homing",
        { base with Topo_gen.stub_extra_provider_prob = 0.15 } );
      ( "dense multi-homing",
        { base with Topo_gen.stub_extra_provider_prob = 0.7 } );
      ("no mid-tier peering", { base with Topo_gen.peers_per_mid = 0. });
      ("heavy peering", { base with Topo_gen.peers_per_mid = 5. });
    ]
  in
  List.map
    (fun (label, params) ->
      let topo = Topo_gen.generate params in
      ( label,
        failure_bars ?pool ~instances ~seed ~scenario:Scenario.single_link topo
      ))
    variants

(* --- tracing overhead --------------------------------------------------- *)

type trace_overhead_result = {
  null_s : float;
  memory_s : float;
  traced_events : int;
  identical : bool;
}

let trace_overhead ?(instances = 10) ?(seed = 1) ?(mrai_base = 30.)
    ?(interval = 0.02) topo =
  let specs = sample_specs ~instances ~seed Scenario.single_link topo in
  (* deliberately sequential, no [?pool]: memory sinks are single-domain
     mutable state, and the quantity of interest is relative per-core cost *)
  let traced = ref 0 in
  let pass sink =
    let t0 = Sys.time () in
    let results =
      sweep ~seed ~specs Runner.all_protocols (fun protocol ~seed spec ->
          let trace = sink () in
          let r =
            Runner.run ~seed ~mrai_base ~interval ~validate:`Off ~trace
              protocol topo spec
          in
          traced := !traced + Trace.recorded trace;
          r)
      |> List.concat_map snd
    in
    (Sys.time () -. t0, results)
  in
  (* the whole record minus the timeline (absent by construction on the
     null pass, present on the memory pass) *)
  let key (r : Runner.result) = { r with timeline = None } in
  let null_s, nulls = pass (fun () -> Trace.null) in
  let memory_s, mems = pass (fun () -> Trace.memory ()) in
  let identical = List.for_all2 (fun a b -> key a = key b) nulls mems in
  { null_s; memory_s; traced_events = !traced; identical }
