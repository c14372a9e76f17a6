(** Chrome trace-event JSON export ([chrome://tracing] / Perfetto).

    Converts a captured [(cycle, event)] stream into the Trace Event
    Format: one process row group per component class and one thread
    row per component instance, all with stable ids derived from sorted
    component names (so two exports of the same events are bitwise
    identical):

    - pid 1 "task pipelines": one row per (set, pipeline); complete
      ["X"] spans for {!Lifecycle}'s occupancy intervals (dispatch to
      finish/park/redispatch), instant queue-full marks;
    - pid 2 "rule engines": one row per task set; ["X"] spans for its
      rendezvous intervals (park to resume);
    - pid 3 "memory": QPI line transfers as ["X"] spans on the link
      row, cumulative hit/miss totals as ["C"] counter samples.

    Timestamps are simulator cycles written into the [ts]/[dur] fields
    (microseconds as far as the viewer is concerned — relative shape is
    what matters).  This module pairs no task events itself; both
    exports go through one writer that emits the ["M"] rows first, then
    the entries stable-sorted by [ts]. *)

val to_json : ?trace_name:string -> (int * Event.t) list -> Json.t
(** Spans still open when the stream ends are closed at the maximum
    observed timestamp with [args.end = "open"]. *)

val to_string : ?trace_name:string -> (int * Event.t) list -> string
(** [Json.to_string] of {!to_json}. *)

(** {2 Wall-clock request traces}

    The serve daemon records per-request phase spans (queue, build,
    execute) in microseconds of wall time rather than simulator cycles;
    the same Trace Event Format applies, with one process row group
    ("serve requests") and one thread row per request, named by its
    request id — so slices within a row are always properly nested no
    matter how requests overlap across the daemon. *)

type request_span = {
  rs_phase : string;  (** slice name, e.g. ["queue"] *)
  rs_start_us : int;  (** microseconds since the trace epoch *)
  rs_dur_us : int;  (** clamped to [>= 0] on export *)
  rs_args : (string * Json.t) list;
}

type request_trace = {
  rt_id : string;  (** request id (becomes the row name) *)
  rt_spans : request_span list;
}

val requests_to_json : ?trace_name:string -> request_trace list -> Json.t
(** Complete ["X"] slices sorted by start time, metadata first; every
    slice carries [cat = "request"] and an [args.request] id so it
    joins against [Obs.Log] lines. *)
