(** Prometheus text exposition of live telemetry: a {!Metrics.registry}
    plus a list of {!Window} rolling histograms.

    The registry carries cumulative since-boot series (counters,
    gauges, fixed-bucket histograms); windows carry "right now" series
    (sliding p50/p90/p99 over the last N seconds).  [agp serve] holds
    its registry and windows itself and answers the [metrics] protocol
    request — and the [agp stats] verb — with {!to_prometheus}; the
    scrape is the daemon's only live view. *)

val sanitize : string -> string
(** Map a registry name to a legal Prometheus metric name
    ([\[a-zA-Z_:\]\[a-zA-Z0-9_:\]*]): illegal characters become ['_']
    (so ["serve.queue_ms"] renders as [serve_queue_ms]). *)

val to_prometheus : Metrics.registry -> Window.t list -> now:float -> string
(** Text exposition (v0.0.4 format): counters and gauges as single
    samples, registry histograms as cumulative [_bucket{le="..."}] /
    [_sum] / [_count] series, windows, in list order, as summaries with
    [quantile="0.5"/"0.9"/"0.99"] labels (lifetime [_count]) plus
    [<name>_window_rate_per_sec] and [<name>_window_max] gauges.  Each
    series is preceded by its [# TYPE] line. *)
