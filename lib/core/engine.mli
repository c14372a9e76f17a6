(** The ECA core: task instances and their well-order indices, task
    queues, rule instances (lanes), event broadcast, counted-rule
    replay and minimum-task tracking, executed over an
    {!Opcode.program}.

    Every interpreter of a specification runs on this one core: the
    {!Semantics} policies (sequential oracle, worker-pool runtime)
    schedule its tasks, and the cycle simulator in [agp_hw] wraps its
    transitions in timing.  All semantics of §4 live here so the
    interpreters cannot drift apart.

    A {!task} is an int: the id of its activation row.  Every task,
    pending ones included, holds a row (tid, set, status, index,
    payload); only a running or parked task also holds a frame (pc,
    registers, handles, await state), bound when it is popped and given
    back when it finishes.  Rows are recycled, so a task handle is
    valid from the activation that makes it until, after the step that
    finishes it, a later activation takes its row: a shell may
    still read a finished task's tid, set and index right after that
    step.  Functions that may have no task to return give {!nil_task}
    instead of an option.  Outside a prim call and a counted rule's
    event log, the step path stores no pointer and allocates only when
    the row, frame and instance arrays double.

    Task bookkeeping costs what it moves.  {!min_uncommitted} reads
    int-only entries (a task's index row, row id and tid) from a
    per-set run kept in activation order, which is index order for
    almost every activation, and from a small fallback heap for the
    rest, so it costs O(1) amortized per activation.  The counters a shell
    polls are fields of its {!view}.

    Rendezvous and event delivery cost what changed.  Parked tasks sit
    in an indexed min-heap on their well-order index, and resolving the
    instance a parked task awaits puts it on a wake list, so
    {!resolve_pending} and {!resume_ready} never scan every parked
    task.  Live rule instances are chained per rule; a keyed rule (see
    {!Opcode}) hashes its instances by key, so an event visits only the
    instances of the rules that listen to it, and of a keyed rule only
    those its key field can match.  An activation or a change of the
    minimum task builds its event (the payload copy, the delivery) only
    when some rule listens to it or the program has counted rules; it is
    counted in [events_fired] either way. *)

exception Deadlock of string
(** No task can make progress while tasks are still parked.  Rebound
    as [Semantics.Deadlock]. *)

exception Step_limit_exceeded of int
(** A scheduling budget ran out; carries the budget.  Rebound as
    [Semantics.Step_limit_exceeded]. *)

type task = private int
(** An activation row id.  Compare handles with [=]. *)

val nil_task : task
(** The "no task" sentinel. *)

val is_nil : task -> bool

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

(** What the shells poll, as fields.  Under dune's dev profile
    ([-opaque]) no call across modules inlines, so a shell reading
    [v.pending] where it would call an accessor saves a call per read.
    The view is the only store of these counters: the engine writes
    them as they move and a shell may only read them (the record is
    [private]; do not write into [pending_in] or [parked_in]). *)
type view = private {
  mutable pending : int;  (** tasks sitting in queues *)
  mutable running : int;  (** tasks popped or woken and not yet parked or finished *)
  mutable parked : int;
      (** tasks stalled at a rendezvous (resolved ones count until
          {!resume_ready} wakes them) *)
  mutable resumed : int;  (** tasks the last {!resume_ready} woke; see {!resumed_get} *)
  mutable live : int;  (** unresolved rule instances: occupied rule-engine lanes *)
  mutable touched_arr : int;
      (** after a load or store, the state array the last {!step} touched
          (an index into [(program t).array_names]); after a prim, the
          prim's index into [(program t).prim_names] *)
  mutable touched_idx : int;
      (** after a load or store, the element it touched; after a
          [Push_iter], the number of activations it emitted *)
  pending_in : int array;  (** per set slot: tasks queued in it *)
  parked_in : int array;  (** per set slot: its parked tasks *)
}

val view : t -> view
(** The engine's view; the same record for the engine's whole life, so
    a shell fetches it once. *)

val array_bases : t -> int array
(** Per array of the program (indexed like [(program t).array_names],
    so by a view's [touched_arr] after a load or store): its first byte
    in the state's layout ({!State.base}), 0 for an array the state
    lacks.  A timing shell's address of a load or store is
    [bases.(touched_arr) + 8 * touched_idx]. *)

val create : Spec.t -> Spec.bindings -> State.t -> t
(** Compile the specification ({!Opcode.compile}), bind its state
    arrays, prims and counted-rule expectations, and compile each pc
    into the closure {!step} calls.
    @raise Invalid_argument when the specification fails
    {!Spec.validate}. *)

val program : t -> Opcode.program

val stats : t -> stats

val push_initial : t -> string -> Value.t list -> unit
(** Host-side activation into a task set (index stamped as a normal
    push from the root index).
    @raise Invalid_argument on an unknown set, or a payload longer than
    every set's arity and every push's argument list. *)

(** {1 Queues} *)

val pop_task : t -> int -> task
(** Dequeue the oldest pending task of a set slot, bind it a frame and
    mark it running; {!nil_task} when that queue is empty. *)

val pop_any : t -> task
(** Dequeue round-robin across sets. *)

val pop_min : t -> task
(** Dequeue the smallest-index queue head.  Each queue is FIFO, so a
    head is its set's minimum only when the set's tasks were pushed in
    index order.  A parent that runs ahead of a smaller one can queue a
    larger child first (a child's index starts with its parent's), and
    then this is not the globally minimum pending task. *)

val min_pending_head : t -> task
(** The smallest-index task among the queue heads, without popping
    (the task {!pop_min} would return; see there for when it is not the
    minimum pending task). *)

val min_uncommitted : t -> task
(** The minimum task that is pending, running or waiting and has not
    fired its commit broadcast.  Ties go to the oldest: among tasks of
    the minimum index (siblings in a [For_all] set share one) it returns
    the one with the smallest {!task_tid}, i.e. the earliest activation.
    A [min_changed] broadcast fires when this task's tid changes.  The
    answer is kept until its task finishes or broadcasts or a smaller
    task is activated, so a repeated call costs one liveness test. *)

val waiting_min : t -> task
(** The parked task with the smallest index, {!nil_task} when none is
    parked.  O(1). *)

(** {1 Stepping}

    [step] returns the latency class of the operation it executed —
    the contract between the core and a timing shell.  The stepped
    classes are below {!lc_blocked}; the finished classes are above. *)

val lc_unit : int
(** one-cycle operation (let, push, alloc, resolved await, emit, if) *)

val lc_load : int
(** a load of element [touched_idx] of state array [touched_arr] (see
    {!view}) *)

val lc_store : int
(** a store, with the same touched fields as {!lc_load} *)

val lc_push_iter : int
(** a data-dependent spawner; [touched_idx] is the number of activations
    it emitted *)

val lc_prim : int
(** a prim kernel; [touched_arr] is its index into
    [(program t).prim_names].  The accesses its kernel reported
    ({!State.touch}) are at the end of the state's access stream when
    tracing was on during the step. *)

val lc_blocked : int
(** the task parked at a rendezvous *)

val lc_committed : int

val lc_aborted : int

val lc_retried : int

val outcome_of_class : int -> Agp_obs.Event.outcome
(** For a finished class ([> lc_blocked]). *)

val step : t -> task -> int
(** Execute exactly one operation of a running task and return its
    latency class.  All events, pushes and rule transitions implied by
    the operation happen inside.  A load or store leaves what it touched
    in the view and records nothing; only a prim's kernel writes the
    state's access stream.

    A step is one call of the closure {!create} compiled for the task's
    pc.  Each closure has the op's operands, state array and
    continuation bound in, and is specialized by operand shape: for the
    shapes the bundled apps compile to (leaves, a leaf plus or minus a
    constant, one int-int binop over two leaves, argument lists of
    leaves) it reads and tag-checks its operands inline.  An int
    operand of another shape (an address, a [Push_iter] bound) takes a
    fast path for a single [Param], [Var] or int-constant leaf, and for
    two such leaves joined by an int-int [+ - *].  On any other shape
    or tag an operand evaluates the op's postfix bytecode, operand by
    operand in the op's order, whose results and error strings are the
    reference's. *)

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
    for {!resumed_get} in ascending index order, ties newest-parked
    first; the view's [resumed] counts them. *)

val resumed_get : t -> int -> task
(** [resumed_get t i], for [i] below the view's [resumed]: the [i]-th
    task the last {!resume_ready} woke. *)

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
(** Check the core's indices: heap order, each parked task's heap slot
    and frame, the per-set parked counts, that the wake list holds
    exactly the parked tasks whose instance resolved, that every link of
    a live rule-instance chain names an instance in use whose parent is
    a live task holding a frame, that every chained instance is
    unresolved and in its key's bucket, and that the live counter equals
    the chain total; in the uncommitted order, that each per-set run
    ascends and the fallback heap is ordered in (index, tid), that every
    entry names a row, that a live entry carries its task's index (and,
    on a run, its set), that each pending, running or parked task that
    has not broadcast has exactly one live entry, and that both the
    least live entry and the task {!min_uncommitted} would return (its
    kept answer while that task lives) are, by tid, the (index, tid)
    minimum over those tasks; that a pending or finished task holds no
    frame, a running or parked one exactly one, which names it back,
    and bound plus free frames equal the frames made; that each task's
    instance chain links instances of that task, and chained plus free
    instances equal the instances made; that every queued task is
    pending, queued once and not parked, and every free row holds a
    committed or squashed task and is in no queue, on no wake list, in
    no waiting heap and holds no frame; and that [activated = committed
    + aborted + retried + pending + running + parked].  Every {!view}
    field is recounted: [pending] and [parked] as the sums of the
    per-set counts, the per-set counts and [running] from the rows'
    statuses (the parked ones also from the waiting heap), [live] from
    the instance chains, [resumed] against the woken tasks (distinct
    rows), and [touched_arr] against the program's arrays and prims.  O(parked + live) per call, plus O(rows, frames,
    instances, run and heap entries) on a stride that grows with them;
    it never drops an entry, so checking does not change the order's
    layout.
    @raise Failure describing the first violation. *)

val check_step : t -> task -> unit
(** What a shell checks, when {!checked}, before each {!step}: the task
    is running and holds its frame, so a pending, finished or parked
    task is never stepped.
    @raise Failure naming the task and its status. *)

val prim_counts : t -> (string * int) list
(** Invocations per [Prim] kernel so far (kernels never invoked are
    omitted). *)

(** {1 Task views}

    Each view reads the task's row or frame in the engine that made
    it. *)

val task_tid : t -> task -> int
(** Unique per activation (a retry gets a fresh tid). *)

val task_set : t -> task -> int
(** Task-set slot. *)

val task_pc : t -> task -> int
(** Program counter into [(program t).code]; its set's entry while the
    task holds no frame (pending or finished). *)

val task_index : t -> task -> Index.t

val compare_index : t -> task -> task -> int
(** Well-order comparison of two tasks' indices. *)

val task_var : t -> task -> string -> Value.t option
(** Current value of a task-local variable, [None] while unbound or
    while the task holds no frame. *)
