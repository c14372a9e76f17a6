(** Interval time-series profiler: every [interval] simulated cycles,
    snapshot pipeline utilization, window/queue occupancy, cache hit
    rate and QPI link usage into a row, so phase behaviour (the BFS
    wavefront ramp-up, the LU tail) is visible instead of being
    averaged away into one end-of-run number.

    The sampler is a passive reader: the producer (the accelerator
    simulator) pushes cumulative counter snapshots at cycle-advance
    time and the timeline differentiates them per window.  It never
    writes back into the model, so a sampled run is bit-identical to an
    unsampled one (asserted in [test/test_obs.ml]).

    Sample placement: one sample at every multiple of [interval] up to
    the run length, plus a final partial sample when the run does not
    end on a boundary — exactly [ceil (cycles / interval)] samples.
    Cycles skipped by the simulator's fast-forward produce samples with
    zero activity, which is what those windows were. *)

type probe = {
  in_flight : int;  (** tasks in pipeline windows right now *)
  pending : int;  (** tasks waiting in task queues right now *)
  active_ops : int;  (** cumulative executed stage-operations *)
  mem_hits : int;  (** cumulative cache hits *)
  mem_misses : int;  (** cumulative cache misses *)
  link_bytes : int;  (** cumulative bytes over the QPI link *)
}

type sample = {
  s_cycle : int;  (** window end (the boundary the sample was taken at) *)
  s_in_flight : int;
  s_pending : int;
  s_utilization : float;  (** window's executed ops / (window cycles x stage ops) *)
  s_hit_rate : float;  (** window's hits / accesses; 1.0 when no accesses *)
  s_link_bytes : int;  (** bytes transferred in this window *)
  s_link_util : float;  (** window bytes / (bytes-per-cycle x window cycles) *)
}

type t

val create : ?interval:int -> unit -> t
(** Default interval 256 cycles.
    @raise Invalid_argument when [interval <= 0]. *)

val interval : t -> int

val start : t -> total_stage_ops:int -> bytes_per_cycle:float -> unit
(** Called by the producer once per run with the normalization
    constants; resets any previously captured samples. *)

val due : t -> upto:int -> bool
(** True when advancing to [upto] crosses the next boundary — lets the
    producer skip building a {!probe} on the common no-sample cycle. *)

val tick : t -> upto:int -> probe -> unit
(** Record a sample for every boundary in [(last, upto]] using the
    given cumulative snapshot (a fast-forward crossing several
    boundaries yields several zero-activity windows). *)

val finish : t -> cycles:int -> probe -> unit
(** Final call at run end: emits any remaining boundary samples plus
    the trailing partial window. *)

val samples : t -> sample list
(** Oldest first. *)

val sample_count : t -> int

val to_json : t -> Json.t
(** [{"interval"; "samples": [...]}] with one object per sample. *)

val summary_json : t -> Json.t
(** Scalar reduction (peaks and means) for embedding in a run report
    without the full series. *)
