(** Basic descriptive statistics over float samples.

    All functions operating on possibly-empty inputs state their behaviour
    explicitly; none of them mutate their input. *)

type summary = {
  n : int;  (** number of samples *)
  mean : float;
  stddev : float;  (** population standard deviation; 0 when [n <= 1] *)
  min : float;
  max : float;
  median : float;
}
(** One-pass summary of a sample set. *)

val mean : float list -> float
(** Arithmetic mean. Returns [nan] on the empty list. *)

val variance : float list -> float
(** Population variance (divides by [n]). Returns [0.] when fewer than two
    samples are given. *)

val stddev : float list -> float
(** Square root of {!variance}. *)

val percentile : float -> float list -> float
(** [percentile p xs] returns the [p]-th percentile of [xs] using linear
    interpolation between closest ranks, with [p] in [[0., 100.]].
    @raise Invalid_argument on an empty list or [p] outside the range. *)

val median : float list -> float
(** [median xs = percentile 50. xs]. *)

val summarize : float list -> summary
(** Full {!summary} of the sample.
    @raise Invalid_argument on the empty list. *)
