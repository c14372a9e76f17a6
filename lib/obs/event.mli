(** The structured event taxonomy of every stepper.

    One constructor per observable happening; the producer stamps each
    event with a timestamp when it emits into a {!Sink}.  The simulator
    emits all of them, stamped in cycles; the software runtimes emit
    the four task events, stamped in scheduler ticks, with the worker
    as the [pipe].  Events carry enough identity ([set], [pipe], [tid]) for
    an exporter to reconstruct per-row timelines. *)

type outcome =
  | Commit
  | Abort
  | Retry

type t =
  | Task_dispatch of { set : string; pipe : int; tid : int; index : int array }
      (** a task entered a pipeline's reorder window (fresh issue or
          rendezvous wake-up); [index] is its well-order index, one slot
          per task set *)
  | Task_finish of { set : string; pipe : int; tid : int; outcome : outcome }
      (** the task left the pipeline by committing, aborting or being
          retried *)
  | Rendezvous_park of { set : string; pipe : int; tid : int }
      (** the task reached its rendezvous and parked in a rule lane *)
  | Rendezvous_resume of { set : string; tid : int }
      (** the parked task's rule resolved; it re-enters a pipeline next
          cycle *)
  | Queue_full of { set : string; pipe : int }
      (** backpressure: tasks were pending but this pipeline could not
          accept one this cycle *)
  | Cache_access of { addr : int; is_write : bool; hit : bool }
  | Link_transfer of { bytes : int; start : int; finish : int }
      (** a cache line crossing the QPI link, including any wait for a
          link slot ([start] may exceed the issue cycle) *)

val outcome_name : outcome -> string

val kind : t -> string
(** Stable snake_case tag, e.g. ["task_dispatch"] — the name used in
    metrics and trace output. *)
