(** {!Stamp_net} packed as a first-class {!Engine.S}. {!default} is the
    paper's variant (random-choice coloring, no unlocked-blue spreading),
    named ["STAMP"]; {!make} builds ablation variants for the benches. *)

val default : (module Engine.S)

val make :
  ?spread_unlocked_blue:bool ->
  ?strategy:Coloring.strategy ->
  ?name:string ->
  unit ->
  (module Engine.S)
(** An ablation variant. The coloring is drawn per-run from
    {!Engine.config}[.seed]. *)
