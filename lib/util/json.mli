(** JSON string literals: the one escaper behind every hand-written JSON
    writer in the repository (trace lines, timelines, reports, static-check
    diagnostics, bench output). *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string: ["\""], ["\\"] and control bytes
    are escaped, every other byte (UTF-8 included) is copied unchanged. *)

val string : string -> string
(** [string s] is the literal {!add_string} writes, as a fresh string. *)
