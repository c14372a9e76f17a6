(** Task lifecycles: the only code that pairs a task's dispatch, park,
    resume and finish events.  One walk ({!feed}) turns a stepper's
    [(ts, event)] stream (the accelerator's or a software runtime's)
    into closed {!interval}s and one {!span} per finished activation;
    the Chrome trace and [agp trace] draw the intervals, the summary
    and the lifetime histogram reduce the spans.

    A span splits its activation's wall-clock into queue-wait (resumed
    but waiting to re-enter a pipeline), execute (occupying a pipeline
    window), rendezvous-wait (parked in a rule lane) and squash-redo
    (execute time of activations that aborted or retried, i.e. wasted
    work), exactly: [queue_wait + execute + rdv_wait + squash_redo =
    retired - dispatched] — asserted in [test/test_obs.ml].

    A task's events form a suffix of dispatch (park resume dispatch)*
    finish — a ring capture cuts the front off — and task ids are not
    reused.  A task whose dispatch was cut off gets rendezvous
    intervals but no span.  A dispatch without a resume closes the
    occupancy as ["redispatch"] and restarts the execute segment; a
    finish while parked ends the span and leaves the rendezvous open. *)

type span = {
  sp_set : string;
  sp_tid : int;
  sp_dispatched : int;  (** first dispatch cycle *)
  sp_retired : int;  (** finish cycle *)
  sp_queue_wait : int;
  sp_execute : int;
  sp_rdv_wait : int;
  sp_squash_redo : int;
  sp_outcome : Event.outcome;
}

type kind =
  | Occupancy  (** in a pipeline window, from dispatch *)
  | Rendezvous  (** parked in a rule lane, from park *)
  | Queue_wait  (** resumed, waiting for a pipeline *)

type interval = {
  kind : kind;
  set : string;
  pipe : int;  (** the pipeline of the task's last dispatch *)
  tid : int;
  start : int;
  stop : int;
  ending : string;
      (** what closed it: ["park"], ["redispatch"] or an outcome name
          (occupancy), ["resume"] (rendezvous), ["dispatch"] (queue
          wait), or ["open"] from {!close} *)
}

type t
(** A walk in progress. *)

val tracker : interval:(interval -> unit) -> retired:(span -> unit) -> t
(** [interval] hears each interval as it closes, [retired] each span
    as its task finishes. *)

val feed : t -> int -> Event.t -> unit
(** Advance the walk by one [(ts, event)]; non-task events are
    ignored. *)

val close : t -> at:int -> unit
(** Close every interval still open at [at]: occupancies, then
    rendezvous, each in ascending task id. *)

val spans : (int * Event.t) list -> span list * int
(** Build spans from a captured [(ts, event)] stream (as returned by
    {!Sink.events}); non-task events are ignored.  Returns completed
    spans in retirement order plus the number of activations that never
    finished (dispatched but still in flight when capture stopped). *)

type set_stats = {
  ls_set : string;
  ls_tasks : int;
  ls_commits : int;
  ls_squashes : int;  (** aborted + retried activations *)
  ls_p50 : float;  (** percentiles of dispatch-to-retire latency,
                       exact (over the raw durations, via
                       {!Agp_util.Stats.percentile}) *)
  ls_p90 : float;
  ls_p99 : float;
  ls_mean : float;
  ls_max : float;
  ls_queue_wait : int;  (** phase totals, summed over the set's spans *)
  ls_execute : int;
  ls_rdv_wait : int;
  ls_squash_redo : int;
}

val summarize : span list -> set_stats list
(** Per-task-set reduction; sets in reverse order of their first
    retirement. *)

val histogram : Metrics.registry -> name:string -> span list -> Metrics.histogram
(** Register (or find) a latency histogram under [name] and feed every
    span's dispatch-to-retire duration into it. *)

val to_json : set_stats list -> Json.t
(** Object keyed by task set. *)

val section : span list -> unfinished:int -> Json.t
(** A run report's ["lifecycle"] section: [unfinished] and the
    {!to_json} of {!summarize} under ["sets"]. *)

val render : set_stats list -> string
(** Aligned table, one row per task set. *)
