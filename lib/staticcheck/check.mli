(** One static check: a named, self-registering pass over a topology and
    (optionally) a scenario — check modules run [Registry.register] as a
    toplevel effect, and
    {!Staticcheck} forces their linking, so the catalog extends without
    touching the driver. *)

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

(** Id → check mapping. Registration order is preserved (it is the report
    order); duplicate ids are ignored so re-registration is harmless. *)
module Registry : sig
  val register : (module CHECK) -> unit
  val find : string -> (module CHECK) option
  val names : unit -> string list

  val all : unit -> (module CHECK) list
  (** Registered checks in registration order. *)
end
