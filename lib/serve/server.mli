(** The always-on accelerator daemon: a socket front-end wiring
    {!Protocol} (NDJSON framing) to {!Admission} (backpressure) and
    {!Scheduler} (batched shard execution).

    The request path never blocks on execution: a connection thread
    parses a line, validates it (scale, application, backend — each
    failure is a typed {!Protocol.Error_reply} carrying the same
    self-describing messages the CLI prints), and either admits the job
    or sheds it with a typed [Overloaded] carrying a retry hint derived
    from observed execution time.  Results stream back on the
    submitting connection as shards finish them, interleaved in
    completion order — clients correlate by request id.

    {!handle_line} is the whole per-line state machine, independent of
    any socket, so the protocol and admission behavior are unit-testable
    without I/O (see [test/test_serve.ml]). *)

type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:PATH"] or any string containing ['/'] is a Unix-domain
    socket path; ["HOST:PORT"], [":PORT"] or ["PORT"] is TCP (host
    defaults to 127.0.0.1). *)

val addr_to_string : addr -> string

type config = {
  admission : Admission.config;
  scheduler : Scheduler.config;
}

val default_config : config

type t

val create : ?config:config -> ?log:Agp_obs.Log.t -> ?trace_dir:string -> unit -> t
(** Build the admission queue and start the shard pool; no socket yet.
    [log] (default {!Agp_obs.Log.null}) receives leveled NDJSON lines
    correlated by request id; [trace_dir] enables per-request Chrome
    tracing — the capture is written to [<trace_dir>/serve-trace.json]
    when the daemon drains. *)

val handle_line : t -> respond:(Protocol.response -> unit) -> ?on_admit:(unit -> unit) ->
  ?on_settle:(unit -> unit) -> string -> [ `Continue | `Shutdown ]
(** Process one request line; [respond] is called synchronously for
    immediate replies (errors, sheds, pong, metrics, hello) and later —
    from a shard thread — for admitted run results.  [on_admit] fires
    when a run request is admitted, [on_settle] when its (single)
    response has been delivered; the socket layer uses the pair to keep
    a connection open until its in-flight results have flushed.
    [`Shutdown] means a shutdown request was served: the daemon has
    stopped admitting, drained, and replied. *)

val prometheus : t -> string
(** The daemon's only live view, as Prometheus text exposition — the
    [metrics] protocol reply and the body behind [agp stats]:
    [serve.requests_{accepted,completed,shed}_total] / [serve.errors_total]
    counters, [serve.{queue_depth,in_flight,uptime_seconds}] gauges
    (refreshed at each scrape), and 60 s windows [serve.latency_ms] /
    [serve.queue_ms] / [serve.build_ms] / [serve.exec_ms], one sample
    per completed request. *)

val tracer : t -> Tracer.t option

val shutdown : t -> unit
(** Close admission, drain the shard pool and wake the accept loop.
    Idempotent, callable from any thread. *)

val listen : t -> addr:addr -> unit
(** Bind, accept, and serve until {!shutdown} (or a [shutdown] request)
    — one thread per connection, blocking the caller.  Unix socket
    paths are unlinked before bind and after exit. *)
