(** Binary min-heap of timestamped events with FIFO tie-breaking.

    Events pushed with equal timestamps pop in insertion order, which makes
    simulations deterministic regardless of heap internals. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument if [time] is NaN. *)

val pop_min : 'a t -> (float * 'a) option
(** Remove and return the earliest event ([None] when empty). The heap
    keeps no reference to a popped payload, so it can be collected as soon
    as the caller drops it. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest event without removing it. *)

val size : 'a t -> int

val is_empty : 'a t -> bool
