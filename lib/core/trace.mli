(** Execution tracing for the pure software runtime — the debugging
    support of §4.4 ("a pure software runtime is provided to help
    programmers debug applications").

    Runs a specification exactly like {!Semantics.pipelined} (same
    worker model, same schedule) with a tap sink on its task events,
    pairs them through {!Agp_obs.Lifecycle}, and renders the worker
    occupancies as a per-worker timeline plus a per-task-set summary —
    making collisions, squashes and rendezvous stalls visible before
    any hardware is generated. *)

type t = {
  occupancy : (Agp_obs.Lifecycle.interval * string) list;
      (** every time a task held a worker ([pipe]), from its dispatch to
          its park or finish ([ending]), with the task's rendered
          well-order index; in closing order *)
  report : Semantics.report;
}

val run :
  ?initial:(string * Value.t list) list ->
  ?workers:int ->
  ?max_entries:int ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  t
(** Traced execution (default 4 workers).  Recording stops after
    [max_entries] (default 100k) entries while execution continues;
    a dispatch and each retired operation count one entry. *)

val render_timeline : ?max_ticks:int -> t -> string
(** ASCII worker-per-row timeline of the first [max_ticks] (default 60)
    scheduler ticks: each cell is the task index that occupied the
    worker, with [*] marking a squash and [~] a rendezvous stall. *)

val summarize : t -> (string * int * int * int * int) list
(** Per task set: (name, committed, aborted, retried, rendezvous
    blocks). *)
