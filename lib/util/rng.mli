(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that every
    workload, test and experiment is reproducible from a single integer
    seed.  The generator is splitmix64, which is small, fast and has good
    statistical quality for simulation purposes.

    The state is held unboxed, so {!int}, {!int_in}, {!chance} and
    {!bool} allocate nothing; {!bits64} and {!float} allocate only the
    boxed value they return.  The streams are those of the original
    boxed-[int64] generator, value for value ([test/golden/rng.txt]
    pins them). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give sub-components their own streams without coupling their
    consumption rates. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
