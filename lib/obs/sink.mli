(** Event sinks: where instrumented components send {!Event.t}s.

    Four flavours:
    - {!null} drops everything and reports itself disabled, so
      instrumentation sites can guard on {!enabled} and cost one branch
      when observation is off;
    - {!ring} keeps the most recent [capacity] events (older ones are
      overwritten and counted as {!dropped}) — bounded capture for
      always-on monitoring;
    - {!collect} keeps every event — full capture for trace export;
    - {!tap} hands each event to a function as it is emitted and keeps
      none — a consumer that folds the stream as it runs.

    Producers must emit with non-decreasing [ts] per component, but the
    merged stream is not globally sorted (the memory model timestamps
    requests at their issue time, which can run ahead of the simulated
    cycle); exporters sort. *)

type t

val null : t

val ring : capacity:int -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val collect : unit -> t

val tap : (ts:int -> Event.t -> unit) -> t
(** Calls the function on every event, synchronously, in emission
    order. *)

val enabled : t -> bool
(** [false] only for {!null}.  Guard event construction with this so a
    disabled run allocates nothing. *)

val emit : t -> ts:int -> Event.t -> unit

val events : t -> (int * Event.t) list
(** Captured [(ts, event)] pairs, oldest first (for a ring, the
    surviving window; none for a tap). *)

val count : t -> int
(** Total events ever emitted (including ones a ring overwrote). *)

val dropped : t -> int
(** Events lost to ring overwrite; 0 for other sinks. *)

val clear : t -> unit
