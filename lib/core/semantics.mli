(** One semantics, many interpretations.

    The small-step ECA-rule stepper is the compiled core {!Engine}; this
    module is the {e single} driver loop around it, parameterized over
    an {!interpretation} record: one of two deterministic scheduling
    {!policy}s plus the {!Agp_obs.Sink} that observes it:

    - {!oracle} — always run the minimum active task to completion
      (Definition 4.3's well-order; the conformance reference).
    - {!pipelined} — a fixed pool of abstract workers, one operation per
      busy worker per tick; the aggressive software runtime of §4.4.

    Both policies emit the simulator's task events into the sink —
    [Task_dispatch], [Rendezvous_park], [Rendezvous_resume] and
    [Task_finish] — stamped with the tick (scheduler tick for
    {!pipelined}, global transition count for {!oracle}) and with the
    worker as the [pipe], so [Lifecycle], its report section and the
    Chrome trace read a runtime run as they read a simulated one.  The
    sink observes and never steers, and with {!Agp_obs.Sink.null} the
    loops build no event at all.

    Adding a substrate means building a record, not writing a loop:
    [Trace] is [pipelined] plus a tap sink, the CPU timing model is
    [oracle] plus a step observer replaying each retired access through
    its cache (then [pipelined] for its makespan), and a test-only
    interpretation is a few lines (see the conformance suite). *)

(** Typed liveness failures, raised by {!Engine} itself.  These are the
    {e same} exception constructors as [Engine.Deadlock] /
    [Engine.Step_limit_exceeded] (rebound), so a handler matching
    either name catches them.  [Printexc.to_string] renders them as
    [Agp_core.Semantics.Deadlock(...)] /
    [Agp_core.Semantics.Step_limit_exceeded(...)]. *)

exception Deadlock of string

exception Step_limit_exceeded of int

(** {1 Interpretations} *)

type policy =
  | Min_first of { max_tasks : int }
      (** run the minimum active task to completion, repeat *)
  | Workers of { workers : int; max_steps : int }
      (** deterministic worker-pool interleaving, one op per busy
          worker per tick *)

type interpretation = {
  descr : string;  (** prefix for error messages, e.g. ["Semantics.pipelined"] *)
  policy : policy;
  sink : Agp_obs.Sink.t;  (** where the run's task events go; {!Agp_obs.Sink.null} by default *)
}

type report = {
  tasks_run : int;
  steps : int;  (** scheduler ticks ({!pipelined}) or transitions *)
  max_concurrency : int;  (** peak busy workers *)
  max_waiting : int;  (** peak parked tasks (0 outside {!pipelined}) *)
  avg_busy : float;  (** mean busy workers per tick *)
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

val oracle : ?max_tasks:int -> unit -> interpretation
(** Sequential minimum-first reference. Default budget 10_000_000
    tasks; exceeding it raises {!Step_limit_exceeded}, and a task that
    parks with nothing to wake it raises {!Deadlock}. *)

val pipelined : ?workers:int -> ?max_steps:int -> unit -> interpretation
(** Worker-pool runtime. Defaults: 8 workers, 100_000_000 steps.
    Raises {!Step_limit_exceeded} past the budget and {!Deadlock} when
    no task can make progress. *)

val with_descr : interpretation -> string -> interpretation

val run :
  ?sink:Agp_obs.Sink.t ->
  ?on_step:(int -> unit) ->
  ?initial:(string * Value.t list) list ->
  interpretation ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  report
(** [run interp spec bindings state] builds an engine, pushes the
    initial tasks, and drives it to completion under [interp]'s policy,
    emitting its task events into [sink] (default: [interp.sink]).
    [on_step] hears the latency class of every {!Engine.step} (the
    [Engine.lc_*] constants) right after it returns and before the step's
    event is emitted; a load or store left what it touched in the
    engine's view. *)

val run_engine :
  ?sink:Agp_obs.Sink.t -> ?on_step:(int -> unit) -> interpretation -> Engine.t -> report
(** [run_engine interp eng] drives an engine whose initial tasks are
    already pushed to completion, as {!run} does. *)

(** {1 Callback shim}

    Kept for the benchmark harness, which counts a traced run's events
    through it; new code passes a sink. *)

type hooks = {
  on_event : tick:int -> worker:int -> int -> Agp_obs.Event.t -> unit;
      (** called with the event's timestamp, its worker ([-1] for a
          resume, which has none) and its task id *)
}

val with_hooks : interpretation -> hooks -> interpretation
(** The interpretation with a {!Agp_obs.Sink.tap} sink that calls
    [on_event] on every task event. *)
