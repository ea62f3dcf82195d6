(** Rendering of experiment results as the rows/series the paper reports,
    with the paper's own numbers alongside for comparison. *)

val pp_fig1 : Format.formatter -> Experiment.fig1_result -> unit
(** The Figure 1 CDF as a value/fraction series plus the headline
    statistics (mean Φ random vs intelligent, tail fractions), each next to
    the paper's value. *)

val pp_bars_plain : Format.formatter -> Experiment.bars -> unit
(** A bar group without a paper column (for workloads the paper describes
    but does not plot, e.g. pure policy-change events). *)

val pp_bars_stats :
  paper:(Runner.protocol * float) list ->
  Format.formatter ->
  (Runner.protocol * Stat.summary) list ->
  unit
(** A Figure 2/3-style bar group: one row per protocol with the measured
    mean count, its spread across instances (± population standard
    deviation and the worst instance) and the paper's count. *)

val pp_overhead : Format.formatter -> Experiment.overhead_result list -> unit
(** Section 6.3 message-overhead and convergence-delay table. *)

val pp_churn : Format.formatter -> Experiment.churn_summary list -> unit
(** Per-protocol churn-sweep table: completed/crashed counts, verdict
    tallies and the averaged metrics over completed instances. *)

val counters_to_json : Counters.t -> string
(** One engine's update-traffic counters as a JSON object
    ([announcements/withdrawals/mrai_deferrals/lost_to_resets]). *)

val churn_to_json :
  Experiment.churn_row list * Experiment.churn_summary list -> string
(** The full churn sweep as one JSON object: per-instance rows (protocol,
    instance, seed, verdict + counters, or error) and the per-protocol summary with
    verdict tallies. *)

val bars_to_csv : (Runner.protocol * Stat.summary) list -> string
(** The same rows as CSV ([protocol,mean,stddev,median,min,max]) for
    downstream plotting. *)

val bars_stats_to_json : (Runner.protocol * Stat.summary) list -> string
(** The same rows as a JSON array of per-protocol objects
    ([protocol/mean/stddev/median/min/max]) — the per-bar payload of the
    bench harness's [--json] output. Non-finite values render as
    [null]. *)

val bars_to_json : Experiment.bars -> string
(** A plain bar group ([protocol/mean]) as a JSON array. *)

val paper_fig2 : (Runner.protocol * float) list
(** The paper's Figure 2 values (ASes with transient problems, single link
    failure): BGP 6604, R-BGP-no-RCI 2097, R-BGP 0, STAMP 357. *)

val paper_fig3a : (Runner.protocol * float) list
(** Figure 3(a): 10314 / 4242 / 861 / 845. *)

val paper_fig3b : (Runner.protocol * float) list
(** Figure 3(b): 12071 / 3803 / 761 / 366. *)
