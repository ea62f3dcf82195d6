(** One static check: a named pass over a topology and (optionally) a
    scenario. {!Staticcheck} lists the built-in checks. *)

type ctx = {
  topo : Topology.t;
  spec : Scenario.spec option;
      (** when present, scenario checks run and per-destination STAMP
          checks restrict themselves to the spec's destination; when
          absent (whole-topology lint) they sweep every destination *)
  mrai_base : float option;  (** runner timer, for bounds checking *)
  detect_delay : float option;
      (** runner-level detection delay, for bounds checking; a spec
          override takes precedence *)
}

val ctx :
  ?spec:Scenario.spec ->
  ?mrai_base:float ->
  ?detect_delay:float ->
  Topology.t ->
  ctx

(** A check inspects the context and returns its findings — pure, no
    simulation, no RNG. [id] is the stable diagnostic id (dotted,
    lowercase, e.g. ["topo.tier1-clique"]); [doc] one line for catalogs
    and [--list] output. *)
module type CHECK = sig
  val id : string
  val doc : string
  val run : ctx -> Diagnostic.t list
end
