(** Structural comparison of two {!Report}s — the regression gate.

    Both reports are flattened to dotted numeric leaves
    ({!Report.flatten}); leaves present in both are compared by
    relative change against a threshold, and the metric's naming
    decides what a change {e means}: keys carrying tokens like
    [cycles], [seconds], [stall], [wait], [p99] regress when they grow;
    keys carrying [utilization], [hit_rate], [busy], [speedup] regress
    when they shrink; everything else (task counts, configuration
    scalars) is informational and never gates.  Added/removed keys are
    informational too — schema evolution is not a performance
    regression. *)

type direction =
  | Lower_better
  | Higher_better
  | Informational

val direction_of : string -> direction
(** Classify a flattened key by its tokens ([Higher_better] tokens
    win). *)

type status =
  | Unchanged  (** within threshold *)
  | Changed  (** beyond threshold, informational key *)
  | Regressed  (** beyond threshold in the bad direction *)
  | Improved  (** beyond threshold in the good direction *)
  | Added  (** only in the current report *)
  | Removed  (** only in the baseline report *)

val status_name : status -> string

type entry = {
  key : string;
  baseline : float option;
  current : float option;
  rel_change : float option;  (** (current - baseline) / |baseline| *)
  status : status;
}

type result = {
  entries : entry list;  (** baseline order, then added keys *)
  regressions : int;
  improvements : int;
  changes : int;  (** informational: changed + added + removed *)
}

val compare : ?threshold:float -> Report.t -> Report.t -> result
(** [compare baseline current] with a relative threshold (default
    0.05 = 5%).  Comparing a report against itself yields zero
    regressions and zero changes.
    @raise Invalid_argument on a negative threshold. *)

val regressed : result -> bool

val render : ?all:bool -> result -> string
(** Human table of non-[Unchanged] entries ([all] includes unchanged
    ones) plus a one-line summary. *)

val to_json : ?all:bool -> result -> Json.t

val trend : (string * Report.t) list -> string
(** A table with one row per named report, in the order given, of
    [sim_throughput.sim_cycles_per_sec],
    [runtime_throughput.runtime_steps_per_sec] and
    [runtime_throughput.ops_per_sec] (["-"] where the report lacks one),
    each with its relative change against the previous report. *)
