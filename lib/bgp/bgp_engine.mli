(** {!Bgp_net} packed as a first-class {!Engine.S}, named ["BGP"]. *)

val engine : (module Engine.S)
