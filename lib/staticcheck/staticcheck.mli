(** The static safety analyzer: run every built-in check over a
    topology (and optionally a scenario) before simulating anything.

    STAMP's Section 3 guarantees only hold when the substrate obeys
    structural invariants — valley-free exports, a connected tier-1 core,
    red/blue downhill disjointness, Lock-forced blue propagation — and
    path-vector safety itself is a static property of the policy graph (no
    dispute wheel ⇒ convergence). This module decides all of that in
    milliseconds, so broken inputs are rejected instead of simulated.

    The built-in catalog, in report order:

    - [topo.wellformed] — symmetric relationships, no self-loops, no
      provider cycles (SCC), connected graph;
    - [topo.tier1-clique] — the tier-1 core is peer-connected (full clique
      expected);
    - [policy.valley-free] — the export matrix is Gao–Rexford and every AS
      has an uphill path to a tier-1;
    - [policy.dispute-wheel] — no transit cycle through sibling groups:
      no dispute wheel, hence guaranteed convergence;
    - [scenario.sanity] — events reference live nodes and links,
      recoveries follow failures, MRAI / detect_delay in range;
    - [stamp.disjoint] — per origin, a node-disjoint red fallback for some
      locked-blue choice exists (warning when Φ = 0);
    - [stamp.lock-coverage] — per origin, a colouring point exists and its
      locked blue path reaches a tier-1 (warning otherwise).

    Severity contract: structural violations that break the simulation's
    premises are errors; STAMP capability gaps and style issues are
    warnings. [`Strict] validation raises on errors only, so healthy
    generated topologies (which may contain Φ = 0 origins) always pass. *)

type validate = [ `Off | `Warn | `Strict ]
(** How callers react to findings: [`Off] — skip analysis entirely;
    [`Warn] — analyze, attach diagnostics, log errors, never fail;
    [`Strict] — analyze and raise on any error-severity diagnostic. *)

type certificate =
  | Convergence_certified
      (** the policy graph is well-formed and dispute-wheel-free, so BGP
          convergence is guaranteed (Griffin–Shepherd–Wilfong) *)
  | Not_certified of string
      (** the check id and message that blocked certification *)

type report = {
  diagnostics : Diagnostic.t list;  (** sorted with {!Diagnostic.compare} *)
  certificate : certificate;
  timings : (string * float) list;
      (** per-check CPU seconds, in catalog order *)
}

val analyze :
  ?spec:Scenario.spec ->
  ?mrai_base:float ->
  ?detect_delay:float ->
  Topology.t ->
  report
(** Run every built-in check. With [spec], scenario checks run and the
    per-origin STAMP checks restrict to the spec's destination; without,
    they sweep all destinations (the whole-topology lint). *)

val errors : report -> Diagnostic.t list
val warnings : report -> Diagnostic.t list

val has_errors : report -> bool

val enforce : ?what:string -> validate -> report -> unit
(** Apply a validation policy to a report: [`Off] and error-free reports
    are no-ops; [`Warn] logs each error-severity diagnostic; [`Strict]
    raises [Invalid_argument] naming [what] (default ["topology"]) and the
    first offending check ids/messages.
    @raise Invalid_argument under [`Strict] with errors present. *)

val certificate_to_string : certificate -> string

val pp_report : Format.formatter -> report -> unit
(** Diagnostics one per line, then the certificate line. *)

val report_to_json : report -> string
(** One JSON object: [errors], [warnings], [certificate], [diagnostics]
    (array of {!Diagnostic.to_json} objects) and [timings_ms]. *)

val preflight :
  ?pool:Parallel.t ->
  ?mrai_base:float ->
  ?detect_delay:float ->
  Topology.t ->
  Scenario.spec list ->
  report list
(** Validate a whole batch of scenarios against one topology, one
    {!analyze} job per spec distributed over [pool] (inline when absent) —
    the fleet's pre-flight gate. Results are in submission order; the
    usual {!Parallel} determinism contract applies (the analysis is pure,
    so results are identical for any worker count). *)
