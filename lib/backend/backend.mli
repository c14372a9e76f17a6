(** One first-class interface over every execution substrate.

    The paper's central promise is one specification, many substrates —
    debug in software, synthesize to FPGA.  A {!t} packages one
    substrate (the sequential oracle, the aggressive software runtime,
    the cycle-level accelerator simulator, or the CPU/OpenCL timing
    models) behind the single {!run} entry point, which returns a
    uniform {!run_result}: the final-state verdict, a timing figure in
    the shared timing universe, engine statistics, and (on request) a
    schema-versioned {!Agp_obs.Report}.

    The registry ({!all}, {!find}, {!names}) enumerates the substrates
    so that harnesses, the CLI and the bench iterate backends instead of
    hardcoding module calls — and so that a future backend (sharded,
    batched, remote) plugs in by adding one {!t} value.  Differential
    correctness over the registry lives in {!Conformance}. *)

type capabilities = {
  timed : bool;
      (** produces [seconds] in the shared timing universe (the
          simulator and the CPU/OpenCL models; the software runtimes
          report steps, not time) *)
  obs_report : bool;
      (** emits its events into an enabled sink handed to {!run} and
          attaches a machine-readable {!Agp_obs.Report} *)
  validates : bool;
      (** state-mutating: executes the real semantics on a fresh
          instance, so [check] is a substrate verdict and [final] holds
          the executed instance.  Backends with [validates = false] are
          pure timing models; their [check] is vacuously [Ok]. *)
}

(** The substrate's native report, carried alongside the uniform fields
    as a typed escape hatch for substrate-specific views (stall
    attribution, cache hit rates, makespan steps, ...).  Every
    stepper-interpretation backend (sequential, runtime, and any
    {!of_interpretation} substrate) shares the [Stepper] shape —
    one semantics, one report. *)
type native =
  | Stepper of Agp_core.Semantics.report
  | Simulated of Agp_hw.Accelerator.report
  | Cpu of Agp_baseline.Cpu_model.report
  | Opencl of Agp_baseline.Opencl_model.report

type run_result = {
  backend_name : string;
  app_name : string;
  check : (unit, string) result;
      (** substrate verdict of the executed instance; vacuously [Ok]
          for pure timing models ([capabilities.validates = false]) *)
  seconds : float option;  (** shared timing universe; [None] if untimed *)
  tasks_run : int option;
      (** tasks that reached an outcome (committed + squashed), when
          the substrate counts tasks *)
  engine_stats : Agp_core.Engine.stats option;
  obs : Agp_obs.Report.t option;
      (** present when run with an enabled sink on an [obs_report]
          backend *)
  native : native;
  final : Agp_apps.App_instance.run option;
      (** the executed instance (state + check), for differential
          comparison against the oracle; [None] for timing models *)
}

type t = {
  name : string;
  summary : string;
  capabilities : capabilities;
  supports : Agp_apps.App_instance.t -> (unit, string) result;
      (** whether this backend can execute the app (e.g. the AOCL model
          needs a graph substrate); call through {!run}, which checks *)
  interp : Agp_core.Semantics.interpretation option;
      (** for stepper backends, the interpretation record that {e is}
          the substrate — scheduling policy plus event sink; [None]
          for the simulator and the timing models *)
  exec : sink:Agp_obs.Sink.t -> Agp_apps.App_instance.t -> run_result;
      (** implementation hook — call {!run}, not this *)
}

exception Unsupported of { backend : string; app : string; reason : string }

val liveness_failure : exn -> string option
(** The description of a liveness failure — a [Semantics.Deadlock] or
    [Semantics.Step_limit_exceeded] from any stepper — or [None] for
    any other exception.  [agp run] maps [Some] to exit code 3, the
    serve daemon to a [liveness] verdict, the conformance harness to a
    [Liveness] failure. *)

val obs_ring_capacity : int
(** 262,144: the ring ([Agp_obs.Sink.ring ~capacity:obs_ring_capacity])
    that [agp run --report], [agp observe] and the serve daemon hand
    {!run}.  A run that emits more keeps its tail, and its report says
    how many events it lost as ["events_dropped"]. *)

val run :
  ?sink:Agp_obs.Sink.t -> ?request_id:string -> t -> Agp_apps.App_instance.t -> run_result
(** The single entry point: execute [app] on the backend, on a fresh
    instance.  When [sink] (default {!Agp_obs.Sink.null}) is enabled,
    an obs-capable backend emits the run's events into it and attaches
    a run report built from {!Agp_obs.Sink.events} (for a tap, which
    keeps none, a report without task lifecycles); its meta carries
    the sink's ["events_dropped"].  [request_id] (set by the serve scheduler) is stamped into the
    report's meta as ["request_id"], correlating the archived artifact
    with the daemon's trace spans and log lines.
    @raise Unsupported when [supports] rejects the app.
    @raise Agp_core.Semantics.Deadlock and
    @raise Agp_core.Semantics.Step_limit_exceeded propagate from the
    substrate (liveness bugs, distinguishable from crashes). *)

(** {1 The registry} *)

val of_interpretation :
  name:string -> summary:string -> Agp_core.Semantics.interpretation -> t
(** Lift an interpretation record into a registry backend: execution is
    [Semantics.run] on a fresh instance, the native report is
    [Stepper].  This is how {!sequential} and {!runtime} are built — a
    new software substrate is a record, not a module.  Capabilities:
    untimed, obs report, validating.  An enabled sink handed to {!run}
    takes the place of the record's own, and the report ([kind]
    ["stepper-run"]) holds the engine and policy counters under
    ["metrics"] and the sink's ["lifecycle"], timed in the policy's
    ticks. *)

val sequential : t
(** The in-order oracle (Definition 4.3) every other backend is judged
    against — the {!Agp_core.Semantics.oracle} interpretation. *)

val runtime : ?workers:int -> ?max_steps:int -> unit -> t
(** The aggressive software runtime (§4.4) on [workers] abstract
    workers (default 8) — the {!Agp_core.Semantics.pipelined}
    interpretation.  Named ["runtime"], or ["runtime:N"] for a
    non-default count.  [max_steps] bounds the scheduler (default 1e8
    ticks); exceeding it raises [Agp_core.Semantics.Step_limit_exceeded]. *)

val with_max_steps : t -> int -> (t, string) result
(** Rebuild a worker-pool backend with a different step budget (the
    CLI's [--max-steps]); [Error] for backends whose policy has no
    budget (the oracle, the simulator, timing models). *)

val simulator : ?config:Agp_hw.Config.t -> unit -> t
(** The cycle-level accelerator model (Fig. 7) on [config] (default
    {!Agp_hw.Config.default}), with {!derive_config} applied per app.
    With an enabled sink it also samples a timeline every 256 cycles,
    and its report is {!Agp_hw.Accelerator.obs_report} of the sink's
    events and that timeline. *)

val cpu_1core : t
val cpu_10core : t
(** The Xeon timing models of §6.3 (both run the same
    {!Agp_baseline.Cpu_model} profile; they expose the 1-core and
    10-core figures respectively). *)

val opencl : t
(** The round-based AOCL-HLS timing model of Table 1; supports apps
    with a graph substrate ([graph_source]). *)

val all : t list
(** Default instances of every registered backend, in presentation
    order: sequential, runtime, simulator, cpu-1core, cpu-10core,
    opencl. *)

val names : string list

val aliases : (string * string) list
(** [(alias, name)] for every alias {!find} accepts, e.g. [("fpga", "simulator")]. *)

val parameterized : (string * string) list
(** [(name, count)] for every backend {!find} also accepts as
    ["name:<count>"], e.g. [("runtime", "workers")]. *)

val find : string -> (t, string) result
(** Resolve a backend by name.  Accepts the registry names, ["fpga"]
    as an alias for ["simulator"], and the parameterized form
    ["runtime:<workers>"].  The error for an unknown name is
    self-describing: it lists every registered backend with its summary
    and parameterized form, plus a "did you mean" suggestion for
    near-misses — [agp run] and the serve daemon print it verbatim. *)

val derive_config : Agp_apps.App_instance.t -> Agp_hw.Config.t -> Agp_hw.Config.t
(** Specialize a simulator configuration to an app: the kernel MLP
    burst width and the per-[Prim] pipeline latencies
    ([flops / fpga_ilp], floor 2) that synthesis would bake into the
    datapath.  Idempotent; preserves every other field (pipelines,
    lanes, bandwidth). *)

(** {1 Accessors for the native report} *)

val stepper_report : run_result -> Agp_core.Semantics.report option
val simulated_report : run_result -> Agp_hw.Accelerator.report option
val cpu_report : run_result -> Agp_baseline.Cpu_model.report option
val opencl_report : run_result -> Agp_baseline.Opencl_model.report option
