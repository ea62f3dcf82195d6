(** Binary min-heap of timestamped events with FIFO tie-breaking.

    Events pushed with equal timestamps pop in insertion order, which makes
    simulations deterministic regardless of heap internals. The heap is a
    struct of arrays (unboxed times, sequence numbers, payload slots), so a
    push or pop allocates at most one payload slot. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** @raise Invalid_argument if [time] is NaN. *)

val next_time : 'a t -> float
(** Timestamp of the earliest event, without allocating.
    @raise Invalid_argument on an empty heap. *)

val take : 'a t -> 'a
(** Remove the earliest event and return its payload. The heap keeps no
    reference to it, so it can be collected as soon as the caller drops it.
    @raise Invalid_argument on an empty heap. *)

val pop_min : 'a t -> (float * 'a) option
(** {!next_time} and {!take} in one call; [None] when empty. *)

val peek_time : 'a t -> float option
(** Timestamp of the earliest event without removing it. *)

val size : 'a t -> int

val is_empty : 'a t -> bool
