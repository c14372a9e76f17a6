(** Request-level wall-clock spans.

    {!Lifecycle} decomposes a single accelerator run into per-task
    cycle-level spans; this module is its counterpart one layer up, for
    the always-on service ([Agp_serve]): each request's wall-clock is
    attributed to named phases (queue-wait behind admission, workload
    build, substrate execution, ...) as millisecond durations, and
    reduced to per-phase count/mean/p50/p90/p99/max summaries that the
    server reports in its [stats] reply.

    A collector is concurrency-safe: worker shards record into the same
    {!t} from many threads. *)

type summary = {
  sp_phase : string;
  sp_count : int;
  sp_mean_ms : float;
  sp_p50_ms : float;  (** exact percentiles over the raw durations,
                          via {!Agp_util.Stats.percentiles} *)
  sp_p90_ms : float;
  sp_p99_ms : float;
  sp_max_ms : float;
}

type t

val create : unit -> t

val record : t -> phase:string -> float -> unit
(** Record one duration (milliseconds) under [phase]. *)

val count : t -> phase:string -> int
(** Durations recorded so far under [phase] (0 for an unknown phase). *)

val summarize : t -> summary list
(** Per-phase reduction, phases in first-recorded order. *)

val mean_ms : t -> phase:string -> float option
(** Mean of a single phase, O(1) from a running sum and count; [None]
    when the phase has no samples (the server's retry-after hint reads
    this on every shed). *)

val to_json : summary list -> Json.t
(** Object keyed by phase:
    [{"<phase>": {"count":n,"mean_ms":..,"p50_ms":..,...}, ...}]. *)

val of_json : Json.t -> (summary list, string) result
(** Inverse of {!to_json}; the serve protocol round-trips span summaries
    through the stats reply. *)

val render : summary list -> string
(** Aligned table, one row per phase. *)
