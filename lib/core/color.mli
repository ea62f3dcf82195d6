(** The two STAMP routing processes: red and blue.

    Blue is the colour whose downhill propagation is guaranteed by the
    [Lock] attribute; red is the complementary process whose propagation is
    given precedence on non-locked providers. *)

type t = Red | Blue

val other : t -> t
val equal : t -> t -> bool

val to_int : t -> int
(** [Red -> 0], [Blue -> 1]; used to index per-process state arrays. *)

val of_int : int -> t
(** Inverse of {!to_int}. @raise Invalid_argument on other integers. *)

val all : t list
(** [[Red; Blue]]. *)

val to_string : t -> string
