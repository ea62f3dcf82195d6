(** {!Rbgp_net} packed as first-class {!Engine.S} values — the two
    paper variants, named ["R-BGP without RCI"] and ["R-BGP"]. *)

val no_rci : (module Engine.S)
val rci : (module Engine.S)
