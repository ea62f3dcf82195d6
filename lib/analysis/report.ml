let paper_fig2 =
  [
    (Runner.Bgp, 6604.);
    (Runner.Rbgp_no_rci, 2097.);
    (Runner.Rbgp, 0.);
    (Runner.Stamp, 357.);
  ]

let paper_fig3a =
  [
    (Runner.Bgp, 10314.);
    (Runner.Rbgp_no_rci, 4242.);
    (Runner.Rbgp, 861.);
    (Runner.Stamp, 845.);
  ]

let paper_fig3b =
  [
    (Runner.Bgp, 12071.);
    (Runner.Rbgp_no_rci, 3803.);
    (Runner.Rbgp, 761.);
    (Runner.Stamp, 366.);
  ]

let pp_fig1 ppf (r : Experiment.fig1_result) =
  Format.fprintf ppf "@[<v>CDF of Phi_k (value, cumulative fraction):@,";
  List.iter
    (fun (x, f) -> Format.fprintf ppf "  %6.3f  %6.3f@," x f)
    (Cdf.points r.cdf);
  Format.fprintf ppf "@,%-42s %10s %10s@," "statistic" "measured" "paper";
  Format.fprintf ppf "%-42s %10.3f %10s@," "mean Phi (random selection)"
    r.mean_random "~0.92";
  Format.fprintf ppf "%-42s %10.3f %10s@," "mean Phi (intelligent selection)"
    r.mean_intelligent "~0.97";
  Format.fprintf ppf "%-42s %10.3f %10s@," "fraction of dests with Phi <= 0.7"
    r.frac_below_07 "< 0.10";
  Format.fprintf ppf "%-42s %10.3f %10s@]" "fraction of dests with Phi > 0.9"
    r.frac_above_09 "> 0.75"

let pp_bars_plain ppf (bars : Experiment.bars) =
  let bgp = List.assoc Runner.Bgp bars in
  Format.fprintf ppf "@[<v>%-20s %12s %8s@," "protocol" "measured" "(ratio)";
  List.iter
    (fun (proto, avg) ->
      Format.fprintf ppf "%-20s %12.1f %7.1f%%@,"
        (Runner.protocol_name proto)
        avg
        (if bgp > 0. then 100. *. avg /. bgp else 0.))
    bars;
  Format.fprintf ppf "@]"

let pp_overhead ppf rows =
  let bgp =
    List.find
      (fun (r : Experiment.overhead_result) -> r.protocol = Runner.Bgp)
      rows
  in
  Format.fprintf ppf "@[<v>%-20s %14s %12s %12s %12s %12s@," "protocol"
    "msgs(initial)" "vs BGP" "msgs(event)" "quiesce(s)" "recover(s)";
  List.iter
    (fun (r : Experiment.overhead_result) ->
      Format.fprintf ppf "%-20s %14.1f %11.2fx %12.1f %12.2f %12.2f@,"
        (Runner.protocol_name r.protocol)
        r.avg_messages_initial
        (r.avg_messages_initial /. Float.max 1. bgp.Experiment.avg_messages_initial)
        r.avg_messages_event r.avg_delay r.avg_recovery)
    rows;
  Format.fprintf ppf
    "(paper, Section 6.3: STAMP < 2x BGP updates; STAMP's forwarding \
     recovers faster than BGP's)@]"

let pp_bars_stats ~paper ppf rows =
  let bgp_measured =
    match List.find_opt (fun (p, _) -> p = Runner.Bgp) rows with
    | Some (_, s) -> s.Stat.mean
    | None -> 0.
  in
  let bgp_paper = List.assoc Runner.Bgp paper in
  Format.fprintf ppf "@[<v>%-20s %10s %9s %8s %8s %10s %8s@," "protocol"
    "mean" "+/-sd" "worst" "(ratio)" "paper" "(ratio)";
  List.iter
    (fun (proto, (s : Stat.summary)) ->
      let ratio total v = if total > 0. then 100. *. v /. total else 0. in
      let paper_v = List.assoc proto paper in
      Format.fprintf ppf "%-20s %10.1f %9.1f %8.0f %7.1f%% %10.0f %7.1f%%@,"
        (Runner.protocol_name proto)
        s.Stat.mean s.Stat.stddev s.Stat.max
        (ratio bgp_measured s.Stat.mean)
        paper_v
        (ratio bgp_paper paper_v))
    rows;
  Format.fprintf ppf "@]"

(* JSON numbers must be finite; the few non-finite values we can produce
   (e.g. the nan share when a protocol loses no packets) become null. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.6g" x else "null"

let bars_stats_to_json rows =
  "["
  ^ String.concat ", "
      (List.map
         (fun (proto, (s : Stat.summary)) ->
           Printf.sprintf
             "{\"protocol\": %s, \"mean\": %s, \"stddev\": %s, \"median\": \
              %s, \"min\": %s, \"max\": %s}"
             (Json.string (Runner.protocol_name proto))
             (json_float s.Stat.mean) (json_float s.Stat.stddev)
             (json_float s.Stat.median) (json_float s.Stat.min)
             (json_float s.Stat.max))
         rows)
  ^ "]"

let counters_to_json (c : Counters.t) =
  Printf.sprintf
    "{\"announcements\": %d, \"withdrawals\": %d, \"mrai_deferrals\": %d, \
     \"lost_to_resets\": %d}"
    c.Counters.announcements c.Counters.withdrawals c.Counters.mrai_deferrals
    c.Counters.lost_to_resets

let bars_to_json rows =
  "["
  ^ String.concat ", "
      (List.map
         (fun (proto, avg) ->
           Printf.sprintf "{\"protocol\": %s, \"mean\": %s}"
             (Json.string (Runner.protocol_name proto)) (json_float avg))
         rows)
  ^ "]"

let pp_churn ppf (summaries : Experiment.churn_summary list) =
  Format.fprintf ppf "@[<v>%-20s %10s %8s %10s %10s %10s %12s %12s@,"
    "protocol" "completed" "crashed" "converged" "ev-budget" "vt-budget"
    "transients" "msgs(event)";
  List.iter
    (fun (s : Experiment.churn_summary) ->
      Format.fprintf ppf "%-20s %10d %8d %10d %10d %10d %12.1f %12.1f@,"
        (Runner.protocol_name s.protocol)
        s.completed s.crashed s.converged s.event_budget_exhausted
        s.time_budget_exhausted s.avg_transients s.avg_messages_event)
    summaries;
  Format.fprintf ppf
    "(verdict tallies: ev-budget = event budget exhausted, vt-budget = \
     simulated-time budget exhausted)@]"

let churn_to_json (rows, summaries) =
  let row_json (r : Experiment.churn_row) =
    let outcome =
      match r.outcome with
      | Ok (res : Runner.result) ->
        Printf.sprintf
          "\"verdict\": %s, \"transient_count\": %d, \"broken_after\": %d, \
           \"messages_event\": %d, \"counters\": %s"
          (Json.string (Sim.verdict_name res.verdict))
          res.transient_count res.broken_after res.messages_event
          (counters_to_json res.counters)
      | Error msg -> "\"error\": " ^ Json.string msg
    in
    Printf.sprintf "{\"protocol\": %s, \"instance\": %d, \"seed\": %d, %s}"
      (Json.string (Runner.protocol_name r.row_protocol))
      r.instance r.job_seed outcome
  in
  let summary_json (s : Experiment.churn_summary) =
    Printf.sprintf
      "{\"protocol\": %s, \"completed\": %d, \"crashed\": %d, \"converged\": \
       %d, \"event_budget_exhausted\": %d, \"time_budget_exhausted\": %d, \
       \"avg_transients\": %s, \"avg_messages_event\": %s}"
      (Json.string (Runner.protocol_name s.protocol))
      s.completed s.crashed s.converged s.event_budget_exhausted
      s.time_budget_exhausted
      (json_float s.avg_transients)
      (json_float s.avg_messages_event)
  in
  Printf.sprintf "{\"rows\": [%s], \"summary\": [%s]}"
    (String.concat ", " (List.map row_json rows))
    (String.concat ", " (List.map summary_json summaries))

let bars_to_csv rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "protocol,mean,stddev,median,min,max\n";
  List.iter
    (fun (proto, (s : Stat.summary)) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%.3f,%.3f,%.3f,%.3f,%.3f\n"
           (Runner.protocol_name proto)
           s.Stat.mean s.Stat.stddev s.Stat.median s.Stat.min s.Stat.max))
    rows;
  Buffer.contents buf
