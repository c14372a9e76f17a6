(** One semantics, many interpretations.

    The small-step ECA-rule stepper is the compiled core {!Engine}; this
    module is the {e single} driver loop around it, parameterized over
    an {!interpretation} record: one of two deterministic scheduling
    {!policy}s plus optional effect {!hooks}:

    - {!oracle} — always run the minimum active task to completion
      (Definition 4.3's well-order; the conformance reference).
    - {!pipelined} — a fixed pool of abstract workers, one operation per
      busy worker per tick; the aggressive software runtime of §4.4.

    Adding a substrate means building a record, not writing a loop: the
    tracer is [pipelined] plus recording hooks, the CPU timing model is
    [oracle] plus a hook replaying each retired access through its cache
    (then [pipelined] for its makespan), and a test-only
    interpretation is a few lines (see the conformance suite). *)

(** Typed liveness failures, raised by {!Engine} itself.  These are the
    {e same} exception constructors as [Engine.Deadlock] /
    [Engine.Step_limit_exceeded] (rebound), so a handler matching
    either name catches them.  [Printexc.to_string] renders them as
    [Agp_core.Semantics.Deadlock(...)] /
    [Agp_core.Semantics.Step_limit_exceeded(...)]. *)

exception Deadlock of string

exception Step_limit_exceeded of int

(** {1 Effect hooks} *)

(** One lifecycle transition of one task under the stepper. *)
type step_event =
  | Acquired  (** scheduled for the first time, or re-popped fresh *)
  | Resumed  (** woken from a rendezvous and rescheduled *)
  | Executed of Spec.op  (** one operation retired *)
  | Blocked_on of string  (** parked awaiting the named handle *)
  | Finished of Engine.outcome  (** frame completed *)

type hooks = {
  on_event : tick:int -> worker:int -> Engine.task -> step_event -> unit;
      (** [tick] is the policy's time unit (scheduler tick for
          {!pipelined}, global transition count otherwise); [worker]
          the abstract worker id.  The task handle is valid only
          during the call (task rows are recycled); read it through
          [Engine.task_tid] and friends, with the engine a hook gets by
          creating it and driving it with {!run_engine}.
          Interpretations with {!null_hooks} (compared physically)
          build no events at all. *)
}

val null_hooks : hooks

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
  hooks : hooks;
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

val with_hooks : interpretation -> hooks -> interpretation

val with_descr : interpretation -> string -> interpretation

val run :
  ?initial:(string * Value.t list) list ->
  interpretation ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  report
(** [run interp spec bindings state] builds an engine, pushes the
    initial tasks, and drives it to completion under [interp]'s policy,
    firing [interp]'s hooks at every transition. *)

val run_engine : interpretation -> Engine.t -> report
(** [run_engine interp eng] drives an engine whose initial tasks are
    already pushed to completion, as {!run} does. *)
