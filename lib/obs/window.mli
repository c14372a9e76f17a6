(** Rolling-window percentiles: p50/p90/p99 over the last N seconds of
    observations rather than over the whole process lifetime.

    Cumulative histograms ({!Metrics.histogram}) answer "how has this
    daemon behaved since boot"; a window answers "how is it behaving
    right now", which is what live dashboards and admission decisions
    need.  Samples are timestamped on entry and pruned lazily; the
    caller supplies the clock, so the module has no wall-clock
    dependency and window behaviour is exactly reproducible in tests.

    All operations are thread-safe (shard threads observe concurrently
    while a scrape summarizes). *)

type t

val create : ?max_samples:int -> span_s:float -> string -> t
(** [create ~span_s name] makes a window keeping samples from the last
    [span_s] seconds.  At most [max_samples] (default 65536) live
    samples are kept: under overload the oldest is dropped and counted
    in [s_dropped] rather than growing without bound.
    @raise Invalid_argument if [span_s <= 0] or [max_samples < 1]. *)

val observe : t -> now:float -> float -> unit
(** [observe t ~now v] records sample [v] at time [now] (seconds, any
    monotone-enough epoch — serve passes [Unix.gettimeofday]). *)

type summary = {
  s_name : string;
  s_count : int;  (** live samples inside the window *)
  s_lifetime : int;  (** observations ever, incl. expired and dropped *)
  s_dropped : int;  (** live samples evicted by the [max_samples] cap *)
  s_rate_per_sec : float;  (** [s_count] over the window's span — arrival rate *)
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

val summary : t -> now:float -> summary
(** Prune to [now] and summarize.  Percentiles are nearest-rank
    ({!Agp_util.Stats.percentile_nearest}): total on the empty window
    (all zeros) and p99 equals the max at small sample counts. *)
