(** Deterministic sampling helpers over an explicit [Random.State].

    All randomness in the repository flows through explicitly threaded
    [Random.State] values so that simulations and experiments are exactly
    reproducible from a seed. *)

val uniform : Random.State.t -> lo:float -> hi:float -> float
(** Uniform draw in [[lo, hi)]. @raise Invalid_argument if [hi < lo]. *)

val choose : Random.State.t -> 'a array -> 'a
(** Uniform choice from a non-empty array.
    @raise Invalid_argument on an empty array. *)

val weighted_index : Random.State.t -> float array -> int
(** [weighted_index st w] draws index [i] with probability proportional to
    [w.(i)]. Weights must be non-negative with a positive sum.
    @raise Invalid_argument otherwise. *)

val shuffle : Random.State.t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick_distinct : Random.State.t -> int -> 'a array -> 'a list
(** [pick_distinct st k a] returns [k] elements drawn without replacement.
    @raise Invalid_argument if [k] exceeds the array length. *)
