(** Cycle-level model of the generalized synthesized accelerator
    (Fig. 7): replicated task pipelines per task set, multi-bank task
    queues, shared rule engines, and the cache/QPI memory subsystem.

    The simulator is a timing shell around the ECA core
    {!Agp_core.Engine} — the very same transition system the software
    runtimes use.  The core executes each operation and reports its
    latency class; the shell charges time for it: loads and stores
    travel through {!Memory}, data-dependent spawners occupy their
    stage once per emitted token, prims occupy their stage for a
    configured kernel latency plus their access burst, rendezvous park
    the task in a rule lane until resolution.  Because semantics and
    timing are strictly separated, every accelerated run is validated
    with the same checks as the software runs.

    The simulator is observable: pass a {!Agp_obs.Sink} to capture the
    structured event stream (task dispatch/finish, rendezvous
    park/resume, queue backpressure, cache and link traffic — see
    {!Agp_obs.Event}), and every run returns a per-cycle stall
    {!Agp_obs.Attribution} in its report.  With the default null sink
    the instrumentation reduces to predicted-false branches, and the
    simulated timing is identical either way (the observer never
    perturbs the model). *)

type report = {
  cycles : int;
  seconds : float;
  utilization : float;
      (** mean active primitive operations over total instantiated
          primitive operations (the Fig. 10 metric) *)
  wall_seconds : float;  (** host wall-clock time spent simulating *)
  sim_cycles_per_sec : float;
      (** simulator throughput ([cycles / wall_seconds]) — the
          higher-is-better signal the CI ratchet gates on *)
  minor_words_per_cycle : float;
      (** minor-heap words allocated per simulated cycle inside the
          cycle loop — the lower-is-better gate on the simulator's
          zero-allocation claim *)
  engine_stats : Agp_core.Engine.stats;
  mem_reads : int;
  mem_writes : int;
  mem_hit_rate : float;
  bytes_over_link : int;
  peak_in_flight : int;
  pipelines : (string * int) list;  (** replication actually used *)
  attribution : Agp_obs.Attribution.t;
      (** where the pipeline-cycles went: per task set, buckets sum to
          [cycles x pipelines of that set] *)
  stall_rechecks : int;
      (** host work on allocator stalls: how many times a task stalled
          at the rule-lane allocator was tested again, for a free lane
          or a tie with the minimum uncommitted task.  Host cost, not
          model output, so it stays out of {!obs_report}. *)
}

val run :
  ?config:Config.t ->
  ?sink:Agp_obs.Sink.t ->
  ?timeline:Agp_obs.Timeline.t ->
  spec:Agp_core.Spec.t ->
  bindings:Agp_core.Spec.bindings ->
  state:Agp_core.State.t ->
  initial:(string * Agp_core.Value.t list) list ->
  unit ->
  report
(** Simulate to quiescence, mutating [state] exactly as the software
    runtimes would.  When the configuration leaves the pipeline
    replication empty, {!Resource.heuristic_pipelines} chooses it.  [sink] (default
    {!Agp_obs.Sink.null}) captures the event stream; it is also
    threaded into the internal {!Memory}.  [timeline] (default absent)
    receives interval samples of utilization / occupancy / cache / link
    activity; the sampler only reads counters, so a sampled run's
    report is identical to an unsampled one.  The state traces for the
    whole run, so each prim's reported accesses ({!Agp_core.State.touch})
    become its burst; on every exit, a raise included, tracing returns
    to its previous setting and the stream is empty.
    @raise Agp_core.Engine.Deadlock when tasks stay parked with nothing
    left to run or wake.
    @raise Agp_core.Engine.Step_limit_exceeded when the run passes
    50,000,000 iterations of the cycle loop.
    @raise Failure naming the first broken invariant, when the engine
    checks invariants ({!Agp_core.Engine.checked}); the simulator then
    also checks, after every scan, that each set's attribution sums to
    [cycles x pipelines] so far. *)

val metrics_registry : ?spans:Agp_obs.Lifecycle.span list -> report -> Agp_obs.Metrics.registry
(** The canonical metrics view of a completed run: counters
    ([accel.cycles], [tasks.*], [mem.*]), gauges ([accel.utilization],
    [accel.seconds], [mem.hit_rate]) and, when the task lifecycles of
    the captured event stream are supplied ({!Agp_obs.Lifecycle.spans}),
    a [task.lifetime.cycles] latency histogram. *)

val obs_report :
  ?app:string ->
  ?events:(int * Agp_obs.Event.t) list ->
  ?timeline:Agp_obs.Timeline.t ->
  config:Config.t ->
  report ->
  Agp_obs.Report.t
(** Assemble the schema-versioned machine-readable run report
    ({!Agp_obs.Report}): configuration as meta, the
    {!metrics_registry} dump, the stall-attribution table (raw
    pipeline-cycles per set plus global fractions), and — when the
    corresponding capture is supplied — per-task-set lifecycle
    percentiles ({!Agp_obs.Lifecycle}) and the timeline summary +
    samples ({!Agp_obs.Timeline}). *)
