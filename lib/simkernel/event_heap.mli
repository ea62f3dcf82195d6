(** Binary min-heap of timestamped integer events with FIFO tie-breaking.

    Events pushed with equal timestamps pop in insertion order, which makes
    simulations deterministic regardless of heap internals. The heap is a
    struct of arrays (unboxed times, sequence numbers and int payloads), so
    a sift moves only floats and ints and a push or pop allocates nothing
    outside growth. What an int stands for is the caller's business:
    {!Sim} keeps its callbacks and {!Session_core} its in-flight messages
    in tables of their own, keyed by the payload. *)

type t

val create : unit -> t

val push : t -> time:float -> int -> unit
(** @raise Invalid_argument if [time] is NaN. *)

val next_time : t -> float
(** Timestamp of the earliest event, without allocating.
    @raise Invalid_argument on an empty heap. *)

val take : t -> int
(** Remove the earliest event and return its payload. A heap that
    drains releases its arrays.
    @raise Invalid_argument on an empty heap. *)

val size : t -> int

val is_empty : t -> bool
