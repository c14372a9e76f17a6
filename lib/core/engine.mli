(** The ECA core: task instances and their well-order indices, task
    queues, rule instances (lanes), event broadcast, counted-rule
    replay and minimum-task tracking, executed over an
    {!Opcode.program}.

    Every interpreter of a specification runs on this one core: the
    {!Semantics} policies (sequential oracle, worker-pool runtime,
    domains) schedule its tasks, and the cycle simulator in [agp_hw]
    wraps its transitions in timing.  All semantics of §4 live here so
    the interpreters cannot drift apart.

    Tasks and rule instances are pooled: a {!task} handle is valid from
    the pop that returns it until the step that finishes it.  Functions
    that may have no task to return give {!nil_task} instead of an
    option, so the hot loops allocate nothing.

    Rendezvous and event delivery cost what changed.  Parked tasks sit
    in an indexed min-heap on their well-order index, and resolving the
    instance a parked task awaits puts it on a wake list, so
    {!resolve_pending} and {!resume_ready} never scan every parked
    task.  Live rule instances are chained per rule; a keyed rule (see
    {!Opcode}) hashes its instances by key, so an event visits only the
    instances of the rules that listen to it, and of a keyed rule only
    those its key field can match. *)

exception Deadlock of string
(** No task can make progress while tasks are still parked.  Rebound
    as [Semantics.Deadlock] / [Runtime.Deadlock]. *)

exception Step_limit_exceeded of int
(** A scheduling budget ran out; carries the budget.  Rebound as
    [Semantics.Step_limit_exceeded] / [Runtime.Step_limit_exceeded]. *)

type task

val nil_task : task
(** The "no task" sentinel. *)

val is_nil : task -> bool

type outcome =
  | Committed_task
  | Aborted_task
  | Retried_task

type stats = {
  mutable activated : int;
  mutable committed : int;
  mutable aborted : int;
  mutable retried : int;
  mutable events_fired : int;
  mutable otherwise_fired : int;
  mutable clause_resolutions : int;
  mutable ops_executed : int;
  mutable rule_allocs : int;
}

type t

val create : Spec.t -> Spec.bindings -> State.t -> t
(** Compile the specification ({!Opcode.compile}) and bind its state
    arrays, prims and counted-rule expectations.
    @raise Invalid_argument when the specification fails
    {!Spec.validate}. *)

val program : t -> Opcode.program

val stats : t -> stats

val push_initial : t -> string -> Value.t list -> unit
(** Host-side activation into a task set (index stamped as a normal
    push from the root index). *)

(** {1 Queues} *)

val pop_task : t -> int -> task
(** Dequeue the oldest pending task of a set slot and mark it running;
    {!nil_task} when that queue is empty. *)

val pop_any : t -> task
(** Dequeue round-robin across sets. *)

val pop_min : t -> task
(** Dequeue the globally minimum pending task (per-set queue heads are
    per-set minima because for-each stamps are monotone). *)

val pending_count : t -> int
(** Tasks sitting in queues. *)

val min_pending_head : t -> task
(** The smallest-index task among the queue heads, without popping. *)

val min_uncommitted : t -> task
(** The minimum task that is pending, running or waiting and has not
    fired its commit broadcast. *)

val uncommitted_remaining : t -> bool
(** True while any task is pending, running or waiting. *)

val waiting_count : t -> int
(** Tasks stalled at a rendezvous (resolved ones count until
    {!resume_ready} wakes them).  O(1). *)

val waiting_in_set : t -> int -> int
(** [waiting_in_set t s]: parked tasks of set slot [s].  O(1). *)

val waiting_min : t -> task
(** The parked task with the smallest index, {!nil_task} when none is
    parked.  O(1). *)

val live_rule_count : t -> int
(** Unresolved rule instances — occupied rule-engine lanes.  A counter,
    O(1). *)

(** {1 Stepping}

    [step] returns the latency class of the operation it executed —
    the contract between the core and a timing shell.  The stepped
    classes are below {!lc_blocked}; the finished classes are above. *)

val lc_unit : int
(** one-cycle operation (let, push, alloc, resolved await, emit, if) *)

val lc_load : int
(** a load of element {!touched_index} of state array {!touched_array}
    (an index into [(program t).array_names]) *)

val lc_store : int
(** a store, with the same touched fields as {!lc_load} *)

val lc_push_iter : int
(** a data-dependent spawner; {!touched_index} is the number of
    activations it emitted *)

val lc_prim : int
(** a prim kernel; {!touched_array} is its index into
    [(program t).prim_names].  Its memory accesses are in the state's
    access trace when tracing was on during the step. *)

val lc_blocked : int
(** the task parked at a rendezvous *)

val lc_committed : int

val lc_aborted : int

val lc_retried : int

val outcome_of_class : int -> outcome
(** For a finished class ([> lc_blocked]). *)

val step : t -> task -> int
(** Execute exactly one operation of a running task and return its
    latency class.  All events, pushes and rule transitions implied by
    the operation happen inside.  Loads and stores also record into the
    state's access trace while it is tracing. *)

val touched_array : t -> int

val touched_index : t -> int

val resolve_pending : t -> unit
(** Re-evaluate minimum-task conditions: fire [On_min_changed] events
    when the minimum uncommitted task changes, and fire the
    [otherwise] clause of rules whose waiting parent is minimal in the
    rule's scope.  Call after any commit, squash or block.

    Only the parked tasks whose index is at most the larger of the
    smallest parked index and the minimum uncommitted index are
    visited; when no task is uncommitted-and-unbroadcast, every parked
    task is. *)

val resume_ready : t -> unit
(** Wake the parked tasks whose rendezvous has resolved since the last
    call (the wake list, not a scan of every parked task): they are
    marked running, their await binding is applied, and they are left
    for {!resumed_count}/{!resumed_get} in ascending index order, ties
    newest-parked first. *)

val resumed_count : t -> int

val resumed_get : t -> int -> task

val deadlocked : t -> bool
(** No task is running or resumable, queues are empty, but waiting
    tasks remain — indicates a specification whose rules lack a viable
    exit path. *)

val set_check_invariants : bool -> unit
(** Whether engines created from now on ask their shells to call
    {!check_invariants} as they go (the [Semantics] policies after every
    {!step}, the cycle simulator once per cycle).  Defaults to true
    when the environment sets [AGP_CHECK=1]. *)

val checked : t -> bool
(** The engine was created with invariant checking on. *)

val check_invariants : t -> unit
(** Check the core's indices: heap order, each parked task's heap slot,
    the per-set parked counts, that the wake list holds exactly the
    parked tasks whose instance resolved, that every chained rule
    instance is live, unresolved and in its key's bucket, and that the
    live counter equals the chain total.  O(parked + live).
    @raise Failure describing the first violation. *)

val prim_counts : t -> (string * int) list
(** Invocations per [Prim] kernel so far (kernels never invoked are
    omitted). *)

(** {1 Task views} *)

val task_tid : task -> int
(** Unique per activation (a retry gets a fresh tid). *)

val task_set : task -> int
(** Task-set slot. *)

val task_pc : task -> int
(** Program counter into [(program t).code]. *)

val task_index : task -> Index.t

val compare_index : task -> task -> int
(** Well-order comparison of two tasks' indices. *)

val task_var : task -> string -> Value.t option
(** Current value of a task-local variable, [None] while unbound. *)
