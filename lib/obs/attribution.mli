(** Per-cycle stall attribution: where do the pipeline-cycles go?

    Every (pipeline, cycle) pair of a simulated run is charged to
    exactly one bucket, so per task set (and in total) the buckets sum
    to [cycles x pipelines] — the invariant that makes the breakdown a
    decomposition rather than a collection of overlapping counters.

    Bucket semantics (priority order, as classified by the simulator):
    - {!Busy}: at least one in-flight task advanced an operation in the
      pipeline this cycle;
    - {!Mem_stall}: tasks are in flight but all are waiting out
      operation latency (dominated by cache misses and the QPI link);
    - {!Rendezvous_stall}: the window is empty while tasks of the set
      sit parked in rule lanes;
    - {!Queue_full}: the window is empty, tasks are pending, but queue
      bank bandwidth was exhausted this cycle;
    - {!Squash_waste}: busy cycles retroactively reclassified because
      the task that consumed them was aborted or retried (clamped so
      the sum invariant holds; squashes of already-parked tasks are not
      chargeable and stay in {!Busy});
    - {!Idle}: nothing to do — the set has no pending, in-flight or
      parked work. *)

type bucket =
  | Busy
  | Mem_stall
  | Rendezvous_stall
  | Queue_full
  | Squash_waste
  | Idle

val buckets : bucket list
(** All six, in rendering order. *)

val bucket_name : bucket -> string

type t
(** A flat matrix of pipeline-cycles: one row of six buckets per task
    set, its sets fixed at creation.  The one place the bucket layout
    lives; the simulator charges it in place every scan. *)

val create : string list -> t
(** All-zero rows for the given sets, in that order.  A set's {e slot}
    is its position in this list (for the simulator, the spec's
    task-set order). *)

val charge : t -> slot:int -> bucket -> int -> unit
(** Add [n] pipeline-cycles ([n >= 0]) to a bucket of the set in
    [slot]. *)

val reclassify : t -> slot:int -> src:bucket -> dst:bucket -> int -> int
(** Move up to [n] cycles between buckets of one set, clamped to the
    source's balance; returns the amount actually moved. *)

val set_total : t -> slot:int -> int
(** Sum of one set's buckets — equals [cycles x pipelines of that set]
    for a simulation charged up to [cycles]. *)

val get : t -> set:string -> bucket -> int
(** One bucket of the named set (0 for a set the matrix does not
    hold). *)

val per_set : t -> (string * (bucket * int) list) list
(** Sets in creation order, each with all six buckets. *)

val total : t -> int
(** Sum over all sets and buckets — equals [cycles x total pipelines]
    for a completed simulation. *)

val equal : t -> t -> bool

type summary = {
  busy_frac : float;
  mem_frac : float;
  rendezvous_frac : float;
  queue_frac : float;
  squash_frac : float;
  idle_frac : float;
}

val summary : t -> summary
(** Fractions of {!total} (all zero for an empty attribution). *)

val dominant_stall : summary -> string * float
(** The largest non-busy bucket, as [(name, fraction)]. *)

val render : t -> string
(** Aligned table: one row per set plus a totals row, each bucket as
    ["cycles (share%)"]. *)

val to_json : t -> Json.t
(** The run report's ["attribution"] section: one object per set,
    keyed by {!bucket_name}, in creation order, then a ["summary"]
    object of the {!summary} fractions. *)
