(** Empirical cumulative distribution functions.

    Used to reproduce the paper's Figure 1 (CDF of the per-destination
    probability {m Φ}) and other distributional results. *)

type t
(** An empirical CDF over a finite sample. Immutable once built. *)

val of_samples : float list -> t
(** Build the empirical CDF of the given samples.
    @raise Invalid_argument on the empty list. *)

val size : t -> int
(** Number of underlying samples. *)

val eval : t -> float -> float
(** [eval cdf x] is the fraction of samples [<= x], in [[0., 1.]]. *)

val quantile : t -> float -> float
(** [quantile cdf q] with [q] in [[0., 1.]] returns the smallest sample [x]
    such that [eval cdf x >= q].
    @raise Invalid_argument if [q] is outside [[0., 1.]]. *)

val points : t -> (float * float) list
(** The CDF as a step-function series: one [(value, cumulative_fraction)]
    point per distinct sample value, in increasing value order. Suitable for
    plotting or for printing a figure's series. *)

val mean : t -> float
(** Mean of the underlying samples. *)

val fraction_at_most : t -> float -> float
(** Alias of {!eval}, named for readability in experiment reports. *)
