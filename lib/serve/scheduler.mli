(** The worker-shard pool: demand-driven batched execution of admitted
    run requests over the {!Agp_backend.Backend} registry.

    Each shard is a thread parked in {!Admission.take_batch}; scheduling
    is demand-driven (a free shard pulls the next batch) rather than
    statically assigned, per the data-driven orchestration model the
    roadmap cites.  A batch groups requests with the same
    [(app, scale, seed)] so the expensive part they share — workload
    construction (graph/mesh/matrix generation) — is paid once and its
    cost amortized across the batch; each request still executes on a
    fresh instance via {!Agp_backend.Backend.run}, so results are
    independent.

    The pool never lets a request die silently: substrate liveness
    failures and crashes become typed responses, and every admitted job
    reaches [on_complete] exactly once. *)

type job = {
  req : Protocol.run_request;
  submitted_at : float;  (** [Unix.gettimeofday] at admission *)
  respond : Protocol.response -> unit;  (** the connection's writer *)
}

(** The one timing record of a served request: [Unix.gettimeofday]
    read once at each phase boundary.  The build is the batch's. *)
type clock = {
  submitted : float;  (** the job's [submitted_at] *)
  build_start : float;
  build_end : float;
  exec_start : float;
  finished : float;
}

val timing : clock -> Protocol.timing
(** The request's phases in ms: [build_ms] the batch's build, [exec_ms]
    this job's run, and [queue_ms] the rest of the wait from admission
    to execute start — for a shard and, for the k-th job of a batch,
    behind its k-1 siblings.  They sum to the latency. *)

type config = {
  shards : int;
  max_batch : int;  (** max requests fused into one batch *)
}

val default_config : config
(** 4 shards, batches of up to 8. *)

type t

val start :
  ?log:Agp_obs.Log.t ->
  ?tracer:Tracer.t ->
  config ->
  admission:job Admission.t ->
  on_complete:(job -> clock -> Protocol.response -> unit) ->
  t
(** Spawn the shard threads.  [on_complete job clock response] is
    called once per job from the executing shard; the server uses it to
    send the response, release the tenant quota and update its counters
    and windows.  Every phase reported derives from [clock]: a Result's
    [timing] is {!timing}, and a [tracer] records slices at the clock's
    boundaries.  The request id is passed into
    {!Agp_backend.Backend.run} so obs reports carry it in their meta.
    [log] receives per-request debug lines and substrate-crash errors,
    correlated by request id. *)

val join : t -> unit
(** Wait for every shard to exit; returns once the admission queue has
    been closed and drained. *)
