(** Small statistics helpers for experiment reporting. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val geomean : float array -> float
(** Geometric mean of positive values; 0 for the empty array. *)

val stddev : float array -> float
(** Population standard deviation. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation.
    @raise Invalid_argument on an empty array. *)

val percentiles : float array -> float -> float
(** [percentiles xs] is {!percentile} [xs] over one sorted copy, so
    several percentiles of a sample cost one sort. *)

val percentile_nearest : float array -> float -> float
(** [percentile_nearest xs p] with [p] in [\[0,100\]], nearest-rank
    (no interpolation): the smallest element such that at least p% of
    the samples are [<=] it.  Total: returns 0 for the empty array, the
    single element for n = 1, and the maximum for any high percentile at
    small n (e.g. p99 of two samples is the larger one). *)

val percentiles_nearest : float array -> float -> float
(** {!percentile_nearest} over one sorted copy, as {!percentiles}. *)

val minimum : float array -> float

val maximum : float array -> float

val sum : float array -> float
