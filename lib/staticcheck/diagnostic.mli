(** Structured findings of the static analyzer.

    A diagnostic names the check that produced it (a stable dotted id such
    as ["policy.dispute-wheel"]), a severity, a location in the topology
    (an AS, a link, or the whole graph) and a human message; most carry a
    fix hint. Locations use external AS numbers, never dense vertex
    indices, so output is stable across re-interning and meaningful next
    to the input files. *)

type severity = Error | Warning

type location =
  | Global  (** about the topology or scenario as a whole *)
  | At_as of int  (** an AS, by external AS number *)
  | At_link of int * int  (** a link, by external AS numbers (normalised) *)

type t = {
  check : string;  (** stable id of the producing check *)
  severity : severity;
  location : location;
  message : string;
  hint : string option;  (** how to fix the input, when the check knows *)
}

val error : check:string -> ?hint:string -> location -> string -> t
val warning : check:string -> ?hint:string -> location -> string -> t

val link : int -> int -> location
(** Normalised link location (smaller AS number first). *)

val is_error : t -> bool

val compare : t -> t -> int
(** Stable report order: severity (errors first), then check id, then
    location, then message. *)

val pp : Format.formatter -> t -> unit
(** One line: [error topo.wellformed @ AS 7: message (hint: ...)]. *)

val to_json : t -> string
(** One JSON object, keys [check], [severity], [location], [message] and
    optionally [hint]; strings are escaped with {!Json.string}. *)
