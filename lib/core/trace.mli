(** Execution tracing for the pure software runtime — the debugging
    support of §4.4 ("a pure software runtime is provided to help
    programmers debug applications").

    Runs a specification exactly like {!Semantics.pipelined} (same
    worker model, same schedule) while recording every task lifecycle
    transition, and renders the recording as a per-worker timeline plus
    a per-task-set summary — making collisions, squashes and rendezvous
    stalls visible before any hardware is generated. *)

type event_kind =
  | Started
  | Executed of string  (** op descriptor, e.g. ["load level"] *)
  | Blocked_at of string  (** rendezvous handle *)
  | Resumed of bool  (** rule verdict *)
  | Committed
  | Aborted
  | Retried

type entry = {
  tick : int;
  worker : int;
  tid : int;
  set_name : string;
  index : string;  (** rendered well-order index *)
  kind : event_kind;
}

type t = {
  entries : entry list;  (** chronological *)
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
(** Traced execution (default 4 workers; recording stops after
    [max_entries] (default 100k) while execution continues). *)

val op_descriptor : Spec.op -> string

val render_timeline : ?max_ticks:int -> t -> string
(** ASCII worker-per-row timeline of the first [max_ticks] (default 60)
    scheduler ticks: each cell is the task index that occupied the
    worker, with [*] marking a squash and [~] a rendezvous stall. *)

val summarize : t -> (string * int * int * int * int) list
(** Per task set: (name, committed, aborted, retried, rendezvous
    blocks). *)
